package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"seastar/internal/obs"
)

// recorder keeps the benchmark's own spans: one around each call into a
// product layer, with the span that caused it. A nil recorder records
// nothing, which is how untraced rounds run.
type recorder struct {
	mu    sync.Mutex
	spans []benchSpan
}

type benchSpan struct {
	ID, Parent int // Parent 0 means a root span
	Name       string
	Start, End time.Time
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, benchSpan{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval the caller measured itself and
// returns its id.
func (r *recorder) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, benchSpan{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(r.spans)
}

// chromeEvent is one "X" (complete) record of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the benchmark's spans (pid 1, with id and parent) and
// the product's obs events as they are today (pid 2) as one Chrome trace.
func writeTrace(dir, workload string, r *recorder, events []obs.Event, meta map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	var out []chromeEvent
	var t0 int64
	if r != nil && len(r.spans) > 0 {
		t0 = r.spans[0].Start.UnixNano()
	} else if len(events) > 0 {
		t0 = events[0].StartNs
	}
	us := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	if r != nil {
		for _, s := range r.spans {
			if s.End.IsZero() {
				continue
			}
			out = append(out, chromeEvent{
				Name: s.Name, Cat: "bench", Ph: "X",
				TS: us(s.Start.UnixNano()), Dur: float64(s.End.Sub(s.Start)) / 1e3,
				PID: 1, TID: 1,
				Args: map[string]any{"id": s.ID, "parent": s.Parent},
			})
		}
	}
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X",
			TS: us(e.StartNs), Dur: float64(e.DurNs) / 1e3, PID: 2, TID: e.TID,
		})
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"traceEvents": out, "metadata": meta})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// obsTotals sums count and time of the obs entries of one category whose
// name contains every given fragment.
func obsTotals(ents []obs.Entry, cat string, fragments ...string) (count int64, total time.Duration) {
	for _, e := range ents {
		if e.Cat != cat {
			continue
		}
		match := true
		for _, f := range fragments {
			if !strings.Contains(e.Name, f) {
				match = false
				break
			}
		}
		if match {
			count += e.Count
			total += time.Duration(e.TotalNs)
		}
	}
	return count, total
}

// obsEventsMs returns the durations in ms of the buffered obs events
// named (cat, name). The buffer holds the first 16384 events after a
// Reset, so on busy phases this is a sample from their start.
func obsEventsMs(events []obs.Event, cat, name string) []float64 {
	var out []float64
	for _, e := range events {
		if e.Cat == cat && e.Name == name {
			out = append(out, float64(e.DurNs)/1e6)
		}
	}
	return out
}
