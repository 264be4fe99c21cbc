package device

import (
	"encoding/json"
	"fmt"
	"io"
)

// KernelRecord is one simulated kernel launch in the device timeline.
type KernelRecord struct {
	Name     string
	StartNs  float64
	DurNs    float64
	Blocks   int
	Threads  int
	LoadB    int64
	StoreB   int64
	Atomics  int64
	Sched    SchedMode
	ActiveTF float64
}

// EnableTrace starts recording every kernel launch. Tracing costs memory
// proportional to the kernel count.
func (d *Device) EnableTrace() { d.trace = []KernelRecord{} }

func (d *Device) record(l Launch, startNs, durNs float64) {
	if d.trace == nil {
		return
	}
	d.trace = append(d.trace, KernelRecord{
		Name:    l.Name,
		StartNs: startNs,
		DurNs:   durNs,
		Blocks:  l.Blocks,
		Threads: l.ThreadsPerBlock,
		LoadB:   l.LoadBytes,
		StoreB:  l.StoreBytes,
		Atomics: l.AtomicOps,
		Sched:   l.Sched,
		ActiveTF: func() float64 {
			if l.ActiveThreadFrac == 0 {
				return 1
			}
			return l.ActiveThreadFrac
		}(),
	})
}

// chromeEvent is one entry of the Chrome trace-event format ("X" = span).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace dumps the recorded timeline in the Chrome trace-event
// JSON format (loadable in chrome://tracing or Perfetto).
func (d *Device) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(d.trace))
	for _, r := range d.trace {
		events = append(events, chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   r.StartNs / 1e3,
			Dur:  r.DurNs / 1e3,
			PID:  1,
			TID:  1,
			Args: map[string]string{
				"blocks":  fmt.Sprint(r.Blocks),
				"threads": fmt.Sprint(r.Threads),
				"loadB":   fmt.Sprint(r.LoadB),
				"storeB":  fmt.Sprint(r.StoreB),
				"atomics": fmt.Sprint(r.Atomics),
				"sched":   r.Sched.String(),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": events})
}

// TraceSummary aggregates the timeline by kernel name.
type TraceSummary struct {
	Name    string
	Count   int
	TotalNs float64
}

// SummarizeTrace groups recorded kernels by name, ordered by total time.
func (d *Device) SummarizeTrace() []TraceSummary {
	idx := map[string]int{}
	var out []TraceSummary
	for _, r := range d.trace {
		i, ok := idx[r.Name]
		if !ok {
			i = len(out)
			idx[r.Name] = i
			out = append(out, TraceSummary{Name: r.Name})
		}
		out[i].Count++
		out[i].TotalNs += r.DurNs
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalNs > out[j-1].TotalNs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
