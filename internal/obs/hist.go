package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Hist is a fixed-bucket, lock-free latency histogram in the Prometheus
// cumulative style. Its bucket upper bounds, in seconds, are fixed at
// construction; serve and the training pipeline each pick a log-spaced
// range that suits their stage lengths.
type Hist struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

// NewHist returns an empty histogram over the ascending bucket upper
// bounds (seconds). The slice is kept, not copied.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// SumNs returns the total observed time in nanoseconds.
func (h *Hist) SumNs() int64 { return h.sumNs.Load() }

// Write emits the histogram under name in Prometheus text exposition
// format.
func (h *Hist) Write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}
