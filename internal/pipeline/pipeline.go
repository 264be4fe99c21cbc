// Package pipeline is the asynchronous mini-batch training engine: it
// turns a sampling.Sampler and a per-batch training step into a bounded
// three-stage pipeline —
//
//  1. sample   — SampleWorkers goroutines draw the neighbourhoods of
//     upcoming batches in parallel;
//  2. gather   — one goroutine copies each batch's features and its
//     seeds' labels into pooled storage (the batch subgraph arrives from
//     the sampler already degree-sorted, §6.3.3, so nothing here sorts
//     it);
//  3. compute  — the caller's goroutine runs forward/backward/optimizer,
//     whose kernels dispatch onto the sched.Pool.
//
// Stages are connected by bounded channels, so sampling for batch k+P
// overlaps compute for batch k and backpressure (never more than ~2P+W
// batches in flight) bounds memory. Every batch's sampler RNG is seeded
// by sampling.DeriveSeed(baseSeed, epoch, batchIndex) and batches are
// re-ordered before compute, so a pipelined epoch is bitwise-identical
// to a serial one — the property tests in internal/train assert exactly
// that.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"seastar/internal/obs"
	"seastar/internal/sampling"
	"seastar/internal/tensor"
)

// Config tunes the pipeline. The zero value of Prefetch selects the
// serial reference path (sample→gather→compute inline, same seeds, same
// numerics) — benchmarks and property tests compare the two.
type Config struct {
	// BatchSize is the number of seed vertices per mini-batch.
	BatchSize int
	// Prefetch is the pipeline depth P: each inter-stage channel buffers
	// up to P batches. 0 runs serially on the caller's goroutine.
	Prefetch int
	// SampleWorkers is the stage-1 parallelism (min 1).
	SampleWorkers int
	// Faults, when non-nil, returns a cumulative major page-fault count.
	// An mmap-backed store (DESIGN.md §16) sets it: while obs tracing is
	// enabled the engine reads it around the sample and gather stages
	// and records each delta as the stage's "majflt" counter. It must be
	// safe for concurrent use (the sample stage is parallel).
	Faults func() int64
}

// faults reads the fault counter when stall attribution is on.
func (e *Engine) faults() (int64, bool) {
	if e.Cfg.Faults == nil || !obs.Enabled() {
		return 0, false
	}
	return e.Cfg.Faults(), true
}

// Batch is one gathered mini-batch, delivered to the compute step in
// index order. The batch, its Feat storage and its Labels slice are
// recycled by the engine: the step must not retain any of them (or a view
// of them) after returning.
type Batch struct {
	Epoch, Index int
	// B is the sampled, degree-sorted subgraph with compact-id
	// bookkeeping.
	B *sampling.Batch
	// Feat is the [len(B.Vertices), d] gathered feature slice (pooled).
	Feat *tensor.Tensor
	// Labels holds the seeds' labels, one per compact id [0, B.SeedCount):
	// the rows of the block a step trains on (graph.Graph.DstPrefix).
	Labels []int
}

// Step consumes one batch: forward, loss, backward, optimizer step.
// It runs on the goroutine that called RunEpoch, strictly in batch
// order.
type Step func(*Batch) error

// Engine drives epochs of pipelined mini-batch training over one
// sampler and one base feature/label set.
type Engine struct {
	Sampler *sampling.Sampler
	Feat    *tensor.Tensor
	Labels  []int
	Cfg     Config
	// Metrics aggregates per-stage counters and timings; always non-nil
	// after New.
	Metrics *Metrics

	pool    *tensor.Pool
	batches sync.Pool // released *Batch values, for their Labels capacity
}

// New validates the configuration and builds an engine.
func New(s *sampling.Sampler, feat *tensor.Tensor, labels []int, cfg Config) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: nil sampler")
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("pipeline: batch size must be ≥ 1, got %d", cfg.BatchSize)
	}
	if cfg.Prefetch < 0 {
		return nil, fmt.Errorf("pipeline: prefetch must be ≥ 0, got %d", cfg.Prefetch)
	}
	if cfg.SampleWorkers < 1 {
		cfg.SampleWorkers = 1
	}
	if feat == nil || feat.Rows() != s.G.N {
		return nil, fmt.Errorf("pipeline: features must be [N, d] with N=%d", s.G.N)
	}
	if len(labels) != s.G.N {
		return nil, fmt.Errorf("pipeline: %d labels for %d vertices", len(labels), s.G.N)
	}
	return &Engine{
		Sampler: s, Feat: feat, Labels: labels, Cfg: cfg,
		Metrics: NewMetrics(), pool: tensor.NewPool(),
	}, nil
}

// RunEpoch trains one epoch: it plans the batch order for `epoch` (a
// pure function of the sampler's base seed and the epoch number), then
// streams every batch through the pipeline into step. It returns the
// first stage or step error, or ctx.Err() on cancellation; in both
// cases all stage goroutines have exited and all pooled tensors are
// back in the pool before it returns.
func (e *Engine) RunEpoch(ctx context.Context, epoch int, step Step) error {
	plan, err := e.Sampler.PlanEpoch(epoch, e.Cfg.BatchSize)
	if err != nil {
		return err
	}
	if e.Cfg.Prefetch == 0 {
		err = e.runSerial(ctx, epoch, plan, step)
	} else {
		err = e.runPipelined(ctx, epoch, plan, step)
	}
	if err == nil {
		e.Metrics.Epochs.Add(1)
	}
	return err
}

// sampleOne draws batch idx of the epoch with its derived seed.
func (e *Engine) sampleOne(epoch, idx int, seeds []int32) (*sampling.Batch, error) {
	f0, attr := e.faults()
	start := time.Now()
	b, err := e.Sampler.SampleSeeded(seeds, sampling.DeriveSeed(e.Sampler.BaseSeed(), epoch, idx))
	if err != nil {
		return nil, fmt.Errorf("pipeline: sample batch %d of epoch %d: %w", idx, epoch, err)
	}
	d := time.Since(start)
	e.Metrics.SampleTime.Observe(d)
	obs.Observe("pipeline", "sample", d)
	if attr {
		obs.Add("pipeline", "sample", "majflt", e.Cfg.Faults()-f0)
	}
	e.Metrics.Sampled.Add(1)
	return b, nil
}

// gather builds the compute-ready batch: pooled feature and label
// gathers. The feature gather writes every row, so its storage is not
// zeroed first.
func (e *Engine) gather(epoch, idx int, sb *sampling.Batch) *Batch {
	f0, attr := e.faults()
	start := time.Now()
	b, _ := e.batches.Get().(*Batch)
	if b == nil {
		b = new(Batch)
	}
	b.Epoch, b.Index, b.B = epoch, idx, sb
	b.Feat = e.pool.GetDirty(len(sb.Vertices), e.Feat.Cols())
	sb.GatherFeaturesInto(b.Feat, e.Feat)
	for _, v := range sb.Vertices[:sb.SeedCount] {
		b.Labels = append(b.Labels, e.Labels[v])
	}
	d := time.Since(start)
	e.Metrics.GatherTime.Observe(d)
	obs.Observe("pipeline", "gather", d)
	if attr {
		obs.Add("pipeline", "gather", "majflt", e.Cfg.Faults()-f0)
	}
	e.Metrics.Gathered.Add(1)
	return b
}

// release recycles a batch and its storage.
func (e *Engine) release(b *Batch) {
	if b == nil {
		return
	}
	e.pool.Put(b.Feat)
	*b = Batch{Labels: b.Labels[:0]}
	e.batches.Put(b)
	if obs.Enabled() {
		st := e.pool.Stats()
		obs.Set("pipeline", "pool", "hits", st.Hits)
		obs.Set("pipeline", "pool", "misses", st.Misses)
		obs.Set("pipeline", "pool", "bytes_out", st.BytesOut)
		obs.Set("pipeline", "pool", "bytes_idle", st.BytesIdle)
	}
}

// compute runs the caller's step with timing.
func (e *Engine) compute(b *Batch, step Step) error {
	start := time.Now()
	err := step(b)
	d := time.Since(start)
	e.Metrics.ComputeTime.Observe(d)
	obs.Observe("pipeline", "compute", d)
	if err != nil {
		e.Metrics.StepErrors.Add(1)
		return err
	}
	e.Metrics.Trained.Add(1)
	return nil
}

// runSerial is the reference path: identical seeds and numerics, no
// concurrency. Prefetch-0 engines use it, and the pipelined path is
// tested against it.
func (e *Engine) runSerial(ctx context.Context, epoch int, plan [][]int32, step Step) error {
	for idx, seeds := range plan {
		if err := ctx.Err(); err != nil {
			return err
		}
		sb, err := e.sampleOne(epoch, idx, seeds)
		if err != nil {
			return err
		}
		b := e.gather(epoch, idx, sb)
		err = e.compute(b, step)
		e.release(b)
		if err != nil {
			return err
		}
	}
	return nil
}

// sampled carries an out-of-order stage-1 result.
type sampled struct {
	idx int
	b   *sampling.Batch
}

// runPipelined wires the bounded three-stage pipeline. Cancellation and
// error handling share one path: fail() cancels the internal context,
// every blocking send/receive selects on it, and the caller drains the
// ready channel (returning pooled tensors) before waiting for all stage
// goroutines to exit.
func (e *Engine) runPipelined(ctx context.Context, epoch int, plan [][]int32, step Step) error {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}

	P := e.Cfg.Prefetch
	tasks := make(chan int)
	sampledCh := make(chan sampled, P)
	ordered := make(chan sampled)
	ready := make(chan *Batch, P)
	// credits hard-bounds the batches issued but not yet trained: the
	// channels alone would let sample workers race arbitrarily far ahead
	// whenever one batch samples slowly (the reorder buffer is a map).
	credits := make(chan struct{}, 2*P+e.Cfg.SampleWorkers)

	var wg sync.WaitGroup

	// Task feeder: batch indices in order, one credit each.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(tasks)
		for i := range plan {
			select {
			case credits <- struct{}{}:
			case <-ictx.Done():
				return
			}
			select {
			case tasks <- i:
			case <-ictx.Done():
				return
			}
		}
	}()

	// Stage 1: parallel sampling workers.
	var sampWG sync.WaitGroup
	for w := 0; w < e.Cfg.SampleWorkers; w++ {
		sampWG.Add(1)
		go func() {
			defer sampWG.Done()
			for {
				var (
					i  int
					ok bool
				)
				select {
				case i, ok = <-tasks:
					if !ok {
						return
					}
				case <-ictx.Done():
					return
				}
				sb, err := e.sampleOne(epoch, i, plan[i])
				if err != nil {
					fail(err)
					return
				}
				select {
				case sampledCh <- sampled{i, sb}:
				case <-ictx.Done():
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampWG.Wait()
		close(sampledCh)
	}()

	// Reorder: restore batch-index order so compute (and hence the
	// optimizer trajectory) is schedule-independent. The pending map is
	// bounded by the worker count plus channel buffers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ordered)
		pending := map[int]*sampling.Batch{}
		next := 0
		for sb := range sampledCh {
			pending[sb.idx] = sb.b
			for {
				b, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case ordered <- sampled{next, b}:
				case <-ictx.Done():
					return
				}
				next++
			}
		}
	}()

	// Stage 2: gather into pooled tensors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for sb := range ordered {
			b := e.gather(epoch, sb.idx, sb.b)
			select {
			case ready <- b:
			case <-ictx.Done():
				e.release(b)
				return
			}
		}
	}()

	// Stage 3: compute in order on the caller's goroutine. After an
	// error (or external cancel) keep draining so gather's sends always
	// complete and pooled tensors come back.
	done := false
	for {
		waitStart := time.Now()
		b, ok := <-ready
		if !ok {
			break
		}
		if done || ictx.Err() != nil {
			e.release(b)
			<-credits
			continue
		}
		stall := time.Since(waitStart)
		e.Metrics.ComputeStall.Observe(stall)
		obs.Observe("pipeline", "compute-stall", stall)
		if err := e.compute(b, step); err != nil {
			fail(err)
			done = true
		}
		e.release(b)
		<-credits
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
