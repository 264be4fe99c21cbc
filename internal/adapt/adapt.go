// Package adapt closes the observability loop for the one planner
// decision measurement has shown to pay: the serve micro-batch size. It
// turns wall-clock trials into a re-planned setting for that knob.
//
// The design is trial-based, not model-based: a Tuner hands out
// candidate tunings round-robin, the caller measures each trial with the
// wall clock, and a candidate is committed only after it beats the
// static plan by a sustained margin (Config.Win, default 10%) over
// Config.Rounds consecutive evaluation rounds — the hysteresis that
// keeps a noisy host from flapping plans. Within each round every
// candidate is measured Config.Explore times interleaved and scored by
// its minimum, the standard robust metric for shared-host timing noise.
//
// Every candidate must stay inside the bitwise-safe envelope: micro-batch
// sizing regroups queued requests and never touches kernel arithmetic,
// so a re-planned server answers byte-identically to its static plan.
//
// Settled plans persist as JSON keyed by (model, graph fingerprint,
// feature dim, GOMAXPROCS, host) with atomic-rename writes, so a warm
// restart adopts the learned plan immediately and skips exploration.
package adapt

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// Key identifies one learned plan: the same model on the same graph
// shape, host and parallelism budget re-uses it; anything else explores
// from scratch.
type Key struct {
	// Model names the compiled program (a model spec key or program name).
	Model string `json:"model"`
	// GraphFP is the graph-topology fingerprint the plan was learned on.
	GraphFP uint64 `json:"graph_fp"`
	// InDim is the input feature width.
	InDim int `json:"in_dim"`
	// Procs is the scheduler worker bound the plan was learned under.
	Procs int `json:"procs"`
	// Host fingerprints the machine (OS/arch/hostname/core count).
	Host string `json:"host"`
}

// String renders the key in the stable form used as the plan-file map
// key.
func (k Key) String() string {
	return fmt.Sprintf("%s|%016x|d%d|p%d|%s", k.Model, k.GraphFP, k.InDim, k.Procs, k.Host)
}

// HostID fingerprints this machine for plan keying: learned trade-offs
// (e.g. "prefetch depth pays goroutine churn on a 1-core box") do not
// transfer across hosts.
func HostID() string {
	hn, err := os.Hostname()
	if err != nil {
		hn = "unknown"
	}
	return runtime.GOOS + "/" + runtime.GOARCH + "/" + hn + "/c" + strconv.Itoa(runtime.NumCPU())
}

// Tuning is one complete re-plan. The zero value is the static plan.
// Plan files written before the kernel and pipeline decision kinds were
// removed also carry "units", "prefetch" and "sample_workers" here and a
// "profile" on the plan; decoding ignores them and keeps max_batch.
type Tuning struct {
	// MaxBatch overrides the serve micro-batch cap (0 = static).
	MaxBatch int `json:"max_batch,omitempty"`
}

// IsZero reports whether the tuning is the static plan.
func (t Tuning) IsZero() bool { return t == Tuning{} }

// Decision records one knob the tuner evaluated: what the static model
// chose, what the measurements chose, and why. EXPLAIN ANALYZE renders
// these under the learned(gen=K) annotation.
type Decision struct {
	// Unit names the component the knob belongs to ("serve/batcher").
	Unit string `json:"unit,omitempty"`
	// Knob names the planner decision ("max_batch").
	Knob string `json:"knob"`
	// Static and Learned are the knob values before and after
	// adaptation; equal when the measurements validated the static model.
	Static  int64 `json:"static"`
	Learned int64 `json:"learned"`
	// WinPct is the measured improvement of the learned value over the
	// static plan (negative when the static plan measured faster).
	WinPct float64 `json:"win_pct"`
	// Why is the one-line human rationale.
	Why string `json:"why"`
}

// Plan is a settled adaptation: the committed tuning, the decisions
// that produced it, and the measured evidence. Plans serialize to the
// Store and render in EXPLAIN ANALYZE.
type Plan struct {
	// Version guards the persistence format.
	Version int `json:"version"`
	Key     Key `json:"key"`
	// Gen counts evaluation rounds the tuner ran before settling; a
	// warm-started plan keeps the generation it was learned at.
	Gen       int        `json:"gen"`
	Tuning    Tuning     `json:"tuning"`
	Decisions []Decision `json:"decisions,omitempty"`
	// BaseNs and BestNs are the static plan's and the committed plan's
	// best observed trial (equal when the static plan won).
	BaseNs int64 `json:"base_ns"`
	BestNs int64 `json:"best_ns"`
}

// planVersion is the current persistence format.
const planVersion = 1

// Learned reports whether any knob diverged from the static model.
func (p *Plan) Learned() bool { return !p.Tuning.IsZero() }

// WinPct is the committed plan's measured improvement over static.
func (p *Plan) WinPct() float64 {
	if p.BaseNs <= 0 || p.BestNs <= 0 {
		return 0
	}
	return 100 * (1 - float64(p.BestNs)/float64(p.BaseNs))
}
