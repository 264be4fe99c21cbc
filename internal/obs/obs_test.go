package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// allocSink defeats escape analysis in TestAllocTracking.
var allocSink []byte

func resetState(t *testing.T) {
	t.Helper()
	Disable()
	DisableAllocTracking()
	Reset()
	t.Cleanup(func() {
		Disable()
		DisableAllocTracking()
		Reset()
	})
}

func TestDisabledSpanAllocs(t *testing.T) {
	resetState(t)
	allocs := testing.AllocsPerRun(1000, func() {
		s := Begin("kern", "unit 0")
		Add("kern", "unit 0", "edges", 100)
		Observe("kern", "unit 0", time.Microsecond)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f objects per span; want 0", allocs)
	}
	if got := Snapshot(); len(got) != 0 {
		t.Fatalf("disabled tracing recorded %d entries; want 0", len(got))
	}
}

func TestSpanRecords(t *testing.T) {
	resetState(t)
	Enable()
	s := Begin("exec", "fwd/unit 0")
	time.Sleep(2 * time.Millisecond)
	s.End()
	Add("exec", "fwd/unit 0", "edges", 500)
	Add("exec", "fwd/unit 0", "edges", 250)
	Set("exec", "fwd/unit 0", "tile_width", 8)

	ents := Snapshot()
	if len(ents) != 1 {
		t.Fatalf("got %d entries, want 1", len(ents))
	}
	e := ents[0]
	if e.Cat != "exec" || e.Name != "fwd/unit 0" || e.Count != 1 {
		t.Fatalf("unexpected entry %+v", e)
	}
	if e.TotalNs < int64(time.Millisecond) {
		t.Fatalf("span recorded %dns, want >= 1ms", e.TotalNs)
	}
	if e.Counters["edges"] != 750 || e.Counters["tile_width"] != 8 {
		t.Fatalf("unexpected counters %v", e.Counters)
	}

	evs, dropped := Events()
	if len(evs) != 1 || dropped != 0 {
		t.Fatalf("got %d events (dropped %d), want 1", len(evs), dropped)
	}
	if evs[0].DurNs != e.TotalNs {
		t.Fatalf("event duration %d != entry total %d", evs[0].DurNs, e.TotalNs)
	}
}

func TestObserveAndTotal(t *testing.T) {
	resetState(t)
	Enable()
	Observe("pipeline", "sample", 5*time.Millisecond)
	Observe("pipeline", "gather", 3*time.Millisecond)
	Observe("kern", "unit 1", 7*time.Millisecond)
	total := map[string]int64{}
	for _, e := range Snapshot() {
		total[e.Cat] += e.TotalNs
	}
	if total["pipeline"] != int64(8*time.Millisecond) || total["kern"] != int64(7*time.Millisecond) {
		t.Fatalf("wall time by category %v, want pipeline 8ms and kern 7ms", total)
	}
}

func TestObserveEventLane(t *testing.T) {
	resetState(t)
	Enable()
	start := time.Now()
	ObserveEvent("serve", "request", start, 4*time.Millisecond, 42)
	evs, _ := Events()
	if len(evs) != 1 || evs[0].TID != 42 {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestEventBufferBound(t *testing.T) {
	resetState(t)
	r := NewRegistry()
	r.maxEvents = 4
	for i := 0; i < 10; i++ {
		r.record("c", "n", int64(i), int64(i+1), 0, 0)
	}
	evs, dropped := r.Events()
	if len(evs) != 4 || dropped != 6 {
		t.Fatalf("got %d events, %d dropped; want 4 events, 6 dropped", len(evs), dropped)
	}
	ents := r.Snapshot()
	if len(ents) != 1 || ents[0].Count != 10 {
		t.Fatalf("attribution must keep counting past the event bound: %+v", ents)
	}
}

func TestAllocTracking(t *testing.T) {
	resetState(t)
	Enable()
	EnableAllocTracking()
	s := Begin("kern", "alloc-unit")
	allocSink = make([]byte, 1<<16)
	s.End()
	ents := Snapshot()
	if len(ents) != 1 {
		t.Fatalf("got %d entries, want 1", len(ents))
	}
	if ents[0].Counters["allocs"] < 1 {
		t.Fatalf("alloc tracking recorded %d allocs, want >= 1", ents[0].Counters["allocs"])
	}
}

func TestResetClears(t *testing.T) {
	resetState(t)
	Enable()
	Observe("a", "b", time.Millisecond)
	Reset()
	if len(Snapshot()) != 0 {
		t.Fatal("Reset left entries behind")
	}
	evs, dropped := Events()
	if len(evs) != 0 || dropped != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestWritePrometheus(t *testing.T) {
	resetState(t)
	Enable()
	Observe("serve", "infer", 2*time.Millisecond)
	Add("serve", "infer", "requests", 3)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`seastar_obs_span_total{cat="serve",name="infer"} 1`,
		`seastar_obs_span_seconds_total{cat="serve",name="infer"}`,
		`seastar_obs_counter{cat="serve",name="infer",counter="requests"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	resetState(t)
	Enable()
	s := Begin("exec", "fwd/unit 0")
	time.Sleep(time.Millisecond)
	s.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 1 {
		t.Fatalf("got %d chrome events, want 1", len(evs))
	}
	if evs[0]["ph"] != "X" || evs[0]["name"] != "fwd/unit 0" {
		t.Fatalf("unexpected chrome event %+v", evs[0])
	}
	if evs[0]["ts"].(float64) != 0 {
		t.Fatalf("first event ts should normalize to 0, got %v", evs[0]["ts"])
	}
}

func TestConcurrentRecord(t *testing.T) {
	resetState(t)
	Enable()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s := Begin("kern", "shared")
				Add("kern", "shared", "n", 1)
				s.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	ents := Snapshot()
	if len(ents) != 1 || ents[0].Count != 1600 || ents[0].Counters["n"] != 1600 {
		t.Fatalf("lost records under concurrency: %+v", ents)
	}
}

// BenchmarkSpanDisabled measures the cost of a Begin/End pair with
// tracing off — the price every instrumented hot path pays
// unconditionally. What tracing costs a whole workload when it is on is
// the benchmark's obs.trace_overhead_ratio.
func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Begin("kern", "unit 0")
		s.End()
	}
}

// BenchmarkSpanEnabled measures the enabled-mode cost: two clock reads
// plus one mutex-guarded map update.
func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	Reset()
	b.Cleanup(func() {
		Disable()
		Reset()
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Begin("kern", "unit 0")
		s.End()
	}
}
