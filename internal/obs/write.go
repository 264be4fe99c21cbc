package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WritePrometheus renders the default registry in Prometheus text
// exposition format, matching the seastar_* style of the serve and
// pipeline metrics: per-entry count, total-seconds, and counter gauges.
func WritePrometheus(w io.Writer) error { return Default.WritePrometheus(w) }

// WritePrometheus renders r; see the package-level WritePrometheus.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ents := r.Snapshot()
	sort.SliceStable(ents, func(i, j int) bool {
		if ents[i].Cat != ents[j].Cat {
			return ents[i].Cat < ents[j].Cat
		}
		return ents[i].Name < ents[j].Name
	})
	if len(ents) > 0 {
		fmt.Fprintf(w, "# HELP seastar_obs_span_total Number of spans recorded per site.\n")
		fmt.Fprintf(w, "# TYPE seastar_obs_span_total counter\n")
		for _, e := range ents {
			fmt.Fprintf(w, "seastar_obs_span_total{cat=%q,name=%q} %d\n", e.Cat, e.Name, e.Count)
		}
		fmt.Fprintf(w, "# HELP seastar_obs_span_seconds_total Total wall time per site.\n")
		fmt.Fprintf(w, "# TYPE seastar_obs_span_seconds_total counter\n")
		for _, e := range ents {
			fmt.Fprintf(w, "seastar_obs_span_seconds_total{cat=%q,name=%q} %.9f\n", e.Cat, e.Name, float64(e.TotalNs)/1e9)
		}
	}
	var hasCounters bool
	for _, e := range ents {
		if len(e.Counters) > 0 {
			hasCounters = true
			break
		}
	}
	if hasCounters {
		fmt.Fprintf(w, "# HELP seastar_obs_counter Attribution counters (edges, rows, tile widths, allocs, ...).\n")
		fmt.Fprintf(w, "# TYPE seastar_obs_counter gauge\n")
		for _, e := range ents {
			keys := make([]string, 0, len(e.Counters))
			for k := range e.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "seastar_obs_counter{cat=%q,name=%q,counter=%q} %d\n", e.Cat, e.Name, k, e.Counters[k])
			}
		}
	}
	return nil
}

// ChromePID is the process id obs events carry in Chrome traces, chosen
// to keep them in a separate track from internal/device's simulated
// kernel records (which use pid 0/1 style ids).
const ChromePID = 9

// ChromeEvents converts the default registry's trace buffer into Chrome
// trace-event objects (ph "X", µs timestamps), normalized so the first
// event starts at ts 0.
func ChromeEvents() []map[string]any { return Default.ChromeEvents() }

// ChromeEvents converts r's buffer; see the package-level ChromeEvents.
func (r *Registry) ChromeEvents() []map[string]any {
	evs, _ := r.Events()
	if len(evs) == 0 {
		return nil
	}
	base := evs[0].StartNs
	for _, e := range evs {
		if e.StartNs < base {
			base = e.StartNs
		}
	}
	out := make([]map[string]any, 0, len(evs))
	for _, e := range evs {
		out = append(out, map[string]any{
			"name": e.Name,
			"cat":  e.Cat,
			"ph":   "X",
			"ts":   float64(e.StartNs-base) / 1e3,
			"dur":  float64(e.DurNs) / 1e3,
			"pid":  ChromePID,
			"tid":  e.TID,
		})
	}
	return out
}

// WriteChromeTrace writes the default registry's trace buffer as a
// standalone Chrome trace JSON array.
func WriteChromeTrace(w io.Writer) error { return Default.WriteChromeTrace(w) }

// WriteChromeTrace writes r's buffer; see the package-level
// WriteChromeTrace.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	evs := r.ChromeEvents()
	enc := json.NewEncoder(w)
	if evs == nil {
		evs = []map[string]any{}
	}
	return enc.Encode(evs)
}
