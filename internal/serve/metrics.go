package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"seastar/internal/tensor"
)

// histBounds are the latency bucket upper bounds in seconds, log-spaced
// from 100µs to 10s — wide enough for both the in-process tests and a
// loaded server.
var histBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// hist is a fixed-bucket, lock-free latency histogram in the Prometheus
// cumulative style.
type hist struct {
	buckets []atomic.Int64 // len(histBounds)+1, last is +Inf
	count   atomic.Int64
	sumNs   atomic.Int64
}

func newHist() *hist {
	return &hist{buckets: make([]atomic.Int64, len(histBounds)+1)}
}

// Observe records one duration.
func (h *hist) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(histBounds) && s > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Totals returns the observation count and summed nanoseconds — the
// deltas the adaptive re-planner measures its trial windows from.
func (h *hist) Totals() (count, sumNs int64) {
	return h.count.Load(), h.sumNs.Load()
}

// write emits the histogram in Prometheus text exposition format.
func (h *hist) write(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range histBounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.buckets[len(histBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// Metrics aggregates the engine's counters and per-stage latency
// histograms. All fields are updated with atomics, so reading them while
// serving never blocks a request.
type Metrics struct {
	Received          atomic.Int64
	Admitted          atomic.Int64
	RejectedQueueFull atomic.Int64
	RejectedDraining  atomic.Int64
	Expired           atomic.Int64
	Failed            atomic.Int64
	Completed         atomic.Int64

	QueueDepth atomic.Int64 // gauge: requests admitted but not yet picked up

	Batches     atomic.Int64
	BatchedReqs atomic.Int64
	GraphSwaps  atomic.Int64

	// Delta-path counters: applied deltas by embedding-recompute mode,
	// rejections (stale generation or invalid payload), and the current
	// generation gauge.
	Deltas            atomic.Int64
	DeltasIncremental atomic.Int64
	DeltasFull        atomic.Int64
	DeltasRejected    atomic.Int64
	Generation        atomic.Int64

	QueueWait    *hist // admission → batch pickup
	InferLatency *hist // batch pickup → response, per request
	TotalLatency *hist // admission → response, per request
	DeltaApply   *hist // ApplyDelta entry → child published
}

// NewMetrics returns a zeroed metrics block.
func NewMetrics() *Metrics {
	return &Metrics{
		QueueWait:    newHist(),
		InferLatency: newHist(),
		TotalLatency: newHist(),
		DeltaApply:   newHist(),
	}
}

// Write emits every metric in Prometheus text exposition format,
// including the plan-cache counters when pc is non-nil and the tensor
// pool's hit counters and byte gauges when pool is non-nil.
func (m *Metrics) Write(w io.Writer, pc *PlanCache, pool *tensor.Pool) {
	g := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	g("seastar_serve_requests_received_total", m.Received.Load())
	g("seastar_serve_requests_admitted_total", m.Admitted.Load())
	g("seastar_serve_requests_rejected_queue_full_total", m.RejectedQueueFull.Load())
	g("seastar_serve_requests_rejected_draining_total", m.RejectedDraining.Load())
	g("seastar_serve_requests_expired_total", m.Expired.Load())
	g("seastar_serve_requests_failed_total", m.Failed.Load())
	g("seastar_serve_requests_completed_total", m.Completed.Load())
	g("seastar_serve_batches_total", m.Batches.Load())
	g("seastar_serve_batched_requests_total", m.BatchedReqs.Load())
	g("seastar_serve_graph_swaps_total", m.GraphSwaps.Load())
	g("seastar_serve_deltas_total", m.Deltas.Load())
	g("seastar_serve_deltas_incremental_total", m.DeltasIncremental.Load())
	g("seastar_serve_deltas_full_total", m.DeltasFull.Load())
	g("seastar_serve_deltas_rejected_total", m.DeltasRejected.Load())
	fmt.Fprintf(w, "# TYPE seastar_serve_generation gauge\nseastar_serve_generation %d\n",
		m.Generation.Load())
	fmt.Fprintf(w, "# TYPE seastar_serve_queue_depth gauge\nseastar_serve_queue_depth %d\n",
		m.QueueDepth.Load())
	if pc != nil {
		hits, misses, compiles := pc.Stats()
		g("seastar_serve_plan_cache_hits_total", hits)
		g("seastar_serve_plan_cache_misses_total", misses)
		g("seastar_serve_plan_cache_compiles_total", compiles)
		fmt.Fprintf(w, "# TYPE seastar_serve_plan_cache_entries gauge\nseastar_serve_plan_cache_entries %d\n",
			pc.Len())
	}
	if pool != nil {
		st := pool.Stats()
		g("seastar_serve_pool_hits_total", st.Hits)
		g("seastar_serve_pool_misses_total", st.Misses)
		fmt.Fprintf(w, "# TYPE seastar_serve_pool_bytes_out gauge\nseastar_serve_pool_bytes_out %d\n", st.BytesOut)
		fmt.Fprintf(w, "# TYPE seastar_serve_pool_bytes_idle gauge\nseastar_serve_pool_bytes_idle %d\n", st.BytesIdle)
	}
	WritePanics(w)
	m.QueueWait.write(w, "seastar_serve_queue_wait_seconds")
	m.InferLatency.write(w, "seastar_serve_infer_latency_seconds")
	m.TotalLatency.write(w, "seastar_serve_total_latency_seconds")
	m.DeltaApply.write(w, "seastar_serve_delta_apply_seconds")
}
