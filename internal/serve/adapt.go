package serve

import (
	"fmt"
	"sync"
	"time"

	"seastar/internal/adapt"
	"seastar/internal/sched"
)

// adaptState is the engine's measured re-planning loop for the
// micro-batch size: a background replanner ticks at a fixed cadence,
// treats each window's completed requests as one trial of the candidate
// batch size that was live, and feeds mean per-request latency to the
// trial tuner. When the tuner settles, the winning plan is persisted so
// a warm restart skips exploration entirely. The hot path reads the
// current batch size through one atomic (Engine.maxBatch); plan swaps
// mid-flight only change how many queued requests the next dispatch
// groups, never the answer any request gets (full-graph batches share
// one forward keyed by the snapshot, and sampled requests seed by
// request content), so re-planning preserves the bitwise contract.
type adaptState struct {
	tuner *adapt.Tuner
	store *adapt.Store
	rep   *adapt.Replanner

	mu            sync.Mutex
	curIdx        int
	lastCompleted int64
	lastLatNs     int64
	persisted     bool
	warm          bool
	diag          error
}

// adaptKey identifies the learned plan slot for this engine
// configuration on this host.
func (e *Engine) adaptKey(snap *Snapshot) adapt.Key {
	return adapt.Key{
		Model:   e.cfg.Spec.Key(),
		GraphFP: snap.Fingerprint(),
		InDim:   snap.FeatDim(),
		Procs:   sched.MaxProcs,
		Host:    adapt.HostID(),
	}
}

// batchCandidates is the candidate set the serve tuner explores: the
// static batch size plus the neighbouring powers of two, bounded by the
// queue depth.
func batchCandidates(cfg Config) []adapt.Candidate {
	cands := []adapt.Candidate{{Name: "static"}}
	seen := map[int]bool{cfg.MaxBatch: true}
	for _, mb := range []int{1, cfg.MaxBatch / 2, cfg.MaxBatch * 2, cfg.MaxBatch * 4} {
		if mb < 1 || mb > cfg.QueueDepth || seen[mb] {
			continue
		}
		seen[mb] = true
		cands = append(cands, adapt.Candidate{
			Name:    fmt.Sprintf("max_batch=%d", mb),
			Tuning:  adapt.Tuning{MaxBatch: mb},
			Knob:    "max_batch",
			Unit:    "serve/batcher",
			Static:  int64(cfg.MaxBatch),
			Learned: int64(mb),
		})
	}
	return cands
}

// startAdapt initializes the re-planning loop: load a persisted plan
// for a warm start, otherwise begin exploring. Called from New after
// the snapshot is stored.
func (e *Engine) startAdapt(snap *Snapshot) {
	key := e.adaptKey(snap)
	st := &adaptState{
		store:  adapt.NewStore(e.cfg.AdaptPlanPath),
		curIdx: -1,
	}
	st.tuner = adapt.NewTuner(key, e.cfg.AdaptConfig, batchCandidates(e.cfg))
	if p, ok, diag := st.store.Load(key); ok {
		st.tuner.Adopt(p)
		st.warm = true
		st.persisted = true
		e.applyBatchTuning(p.Tuning)
	} else {
		st.diag = diag // corrupt file: fall back to static + re-explore
	}
	e.adaptSt = st
	interval := e.cfg.AdaptInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	st.rep = adapt.NewReplanner(interval, e.replanStep)
}

// applyBatchTuning publishes a candidate's batch size to the batcher
// (zero keeps the static size).
func (e *Engine) applyBatchTuning(tn adapt.Tuning) {
	mb := e.cfg.MaxBatch
	if tn.MaxBatch > 0 {
		mb = tn.MaxBatch
	}
	e.maxBatch.Store(int64(mb))
}

// replanStep is one replanner tick: close the measurement window of the
// candidate that was live, report it, and install the next candidate
// (or the settled plan).
func (e *Engine) replanStep() {
	st := e.adaptSt
	st.mu.Lock()
	defer st.mu.Unlock()

	// Trial on end-to-end latency (admission → response), not
	// InferLatency: under load the batch size mostly moves queue wait —
	// bigger batches amortize the shared forward, draining the queue
	// faster — and a pickup-to-response metric is blind to exactly that.
	completed, latNs := e.met.TotalLatency.Totals()
	dC := completed - st.lastCompleted
	dNs := latNs - st.lastLatNs
	if dC > 0 {
		if st.curIdx >= 0 {
			st.tuner.Report(st.curIdx, dNs/dC)
		}
		st.lastCompleted, st.lastLatNs = completed, latNs
	}
	// Windows with no completed requests report nothing: an idle server
	// must not convict (or crown) the live candidate on zero evidence.

	idx, tuning, done := st.tuner.Next()
	st.curIdx = idx
	e.applyBatchTuning(tuning)
	if done && !st.persisted {
		if p, ok := st.tuner.Plan(); ok {
			if err := st.store.Save(p); err != nil {
				st.diag = err
			}
			st.persisted = true
		}
	}
}

// stopAdapt shuts the replanner down (blocking until its goroutine has
// exited) and persists a settled plan that has not been saved yet.
func (e *Engine) stopAdapt() {
	st := e.adaptSt
	if st == nil {
		return
	}
	st.rep.Close()
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.persisted {
		if p, ok := st.tuner.Plan(); ok {
			if err := st.store.Save(p); err != nil {
				st.diag = err
			}
			st.persisted = true
		}
	}
}

// AdaptPlan returns the settled learned plan, if the adaptive loop is
// on and has converged.
func (e *Engine) AdaptPlan() (adapt.Plan, bool) {
	if e.adaptSt == nil {
		return adapt.Plan{}, false
	}
	return e.adaptSt.tuner.Plan()
}

// AdaptWarm reports whether the engine adopted a persisted plan at
// startup (no exploration ran).
func (e *Engine) AdaptWarm() bool {
	return e.adaptSt != nil && e.adaptSt.warm
}

// AdaptDiag returns the most recent persistence diagnostic (a corrupt
// plan file, a failed save), or nil. A diagnostic never stops serving —
// the engine just falls back to the static plan.
func (e *Engine) AdaptDiag() error {
	if e.adaptSt == nil {
		return nil
	}
	e.adaptSt.mu.Lock()
	defer e.adaptSt.mu.Unlock()
	return e.adaptSt.diag
}

// MaxBatch returns the batch size the next dispatch will use.
func (e *Engine) MaxBatch() int { return int(e.maxBatch.Load()) }
