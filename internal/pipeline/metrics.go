package pipeline

import (
	"fmt"
	"io"
	"sync/atomic"

	"seastar/internal/obs"
)

// histBounds are the stage-latency bucket upper bounds in seconds —
// log-spaced from 10µs to 10s, following internal/serve's exposition
// conventions but one decade lower (a mini-batch stage is much shorter
// than an end-to-end request).
var histBounds = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics aggregates the pipeline's per-stage counters and timing
// histograms. All fields are atomics: stage goroutines update them
// concurrently and a scraper can read them mid-epoch.
type Metrics struct {
	Sampled    atomic.Int64 // batches drawn by stage 1
	Gathered   atomic.Int64 // batches gathered by stage 2
	Trained    atomic.Int64 // batches completed by stage 3
	Epochs     atomic.Int64 // epochs completed
	StepErrors atomic.Int64 // compute-step failures
	Restores   atomic.Int64 // checkpoint restores
	Saves      atomic.Int64 // checkpoint saves

	SampleTime   *obs.Hist // per-batch neighbour sampling
	GatherTime   *obs.Hist // per-batch degree sort + feature/label gather
	ComputeTime  *obs.Hist // per-batch forward/backward/step
	ComputeStall *obs.Hist // compute-side wait for the next ready batch
}

// NewMetrics returns a zeroed metrics block.
func NewMetrics() *Metrics {
	return &Metrics{
		SampleTime:   obs.NewHist(histBounds),
		GatherTime:   obs.NewHist(histBounds),
		ComputeTime:  obs.NewHist(histBounds),
		ComputeStall: obs.NewHist(histBounds),
	}
}

// Write emits every metric in Prometheus text exposition format, using
// the seastar_pipeline_* namespace alongside serve's seastar_serve_*.
func (m *Metrics) Write(w io.Writer) {
	g := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	g("seastar_pipeline_batches_sampled_total", m.Sampled.Load())
	g("seastar_pipeline_batches_gathered_total", m.Gathered.Load())
	g("seastar_pipeline_batches_trained_total", m.Trained.Load())
	g("seastar_pipeline_epochs_total", m.Epochs.Load())
	g("seastar_pipeline_step_errors_total", m.StepErrors.Load())
	g("seastar_pipeline_checkpoint_restores_total", m.Restores.Load())
	g("seastar_pipeline_checkpoint_saves_total", m.Saves.Load())
	m.SampleTime.Write(w, "seastar_pipeline_sample_seconds")
	m.GatherTime.Write(w, "seastar_pipeline_gather_seconds")
	m.ComputeTime.Write(w, "seastar_pipeline_compute_seconds")
	m.ComputeStall.Write(w, "seastar_pipeline_compute_stall_seconds")
}
