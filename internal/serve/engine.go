package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/sampling"
	"seastar/internal/tensor"
)

// Sentinel errors mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull means the bounded admission queue rejected the request
	// (backpressure; clients should retry with backoff).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining means the engine is shutting down and admits nothing.
	ErrDraining = errors.New("serve: engine draining")
	// ErrSampledDelta means graph deltas were sent to a sampled-serving
	// engine. Sampled inference re-draws neighbourhoods per request from
	// the snapshot it was planned against; patching that snapshot under a
	// live sampler would silently mix generations, so the combination is
	// refused outright.
	ErrSampledDelta = errors.New("serve: graph deltas require full-graph serving (engine is in sampled mode; restart without fan-out to apply deltas)")
)

// Config tunes the engine. Zero fields take the defaults documented on
// each.
type Config struct {
	// Spec selects and parameterizes the model.
	Spec ModelSpec
	// QueueDepth bounds the admission queue (default 256). Requests
	// arriving with the queue full are rejected with ErrQueueFull.
	QueueDepth int
	// MaxBatch caps how many queued requests one worker dispatch picks up
	// in sampled and embed-cache modes (default 8). In per-batch
	// full-graph mode (no FanOut, no EmbedCache) a batch shares one
	// forward whatever its size, so a dispatch drains the whole queue
	// instead. Either way a batch is whatever is already queued when a
	// worker slot frees, never more: an idle engine dispatches every
	// request alone and at once.
	MaxBatch int
	// Workers bounds concurrently executing batches (default 4).
	Workers int
	// FanOut, when non-empty, switches to sampled-subgraph inference with
	// the given per-layer fan-out (homogeneous models only). Empty means
	// full-graph inference, where a batch computes one forward shared by
	// every request in it.
	FanOut []int
	// SampleSeed perturbs the deterministic per-request sampling seed.
	SampleSeed int64
	// DefaultTimeout applies to requests whose context has no deadline
	// (default 5s).
	DefaultTimeout time.Duration

	// EmbedCache switches full-graph serving to cached embeddings: the
	// forward runs once per (snapshot, model) and every batch gathers
	// rows from the cached logits. Graph deltas then patch the cache
	// incrementally instead of recomputing it. Off by default: every
	// batch then runs its own forward.
	EmbedCache bool
	// DeltaFrontierLimit is the dirty-frontier fraction of N above which
	// an incremental delta recompute falls back to one full forward
	// (default 0.05).
	DeltaFrontierLimit float64
}

func (c *Config) withDefaults() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.DeltaFrontierLimit <= 0 {
		c.DeltaFrontierLimit = 0.05
	}
	if len(c.FanOut) > 0 {
		if c.Spec.Declare(1, 1).Typed() {
			return fmt.Errorf("serve: sampled inference does not support %s (subgraphs drop edge types)", c.Spec.Arch)
		}
		for _, f := range c.FanOut {
			if f < 1 {
				return fmt.Errorf("serve: fan-out must be ≥ 1, got %d", f)
			}
		}
	}
	return nil
}

// Result is one answered inference request.
type Result struct {
	Nodes   []int32        // the requested vertices, as given
	Logits  *tensor.Tensor // [len(Nodes), classes]
	Classes []int          // argmax per node
	Gen     uint64         // snapshot generation the answer was computed on
}

type reply struct {
	res *Result
	err error
}

type request struct {
	ctx      context.Context
	nodes    []int32
	done     chan reply // buffered(1): workers never block responding
	admitted time.Time
	picked   time.Time
}

// published is the engine's atomically-swapped (snapshot, generation)
// pair: a batch that loads it sees a consistent view, and every answer
// reports the generation it was computed on.
type published struct {
	snap *Snapshot
	gen  uint64
	// sampler is the sampled mode's neighbour sampler over snap's graph
	// (nil in full-graph mode). It lives here, not on the Engine, because
	// its vertex→row index is a function of this graph's degree-sort
	// permutation; requests share it and bring only their own seed.
	sampler *sampling.Sampler
}

// Engine is the concurrent inference engine: a bounded admission queue
// feeding a micro-batching dispatcher over a bounded worker pool, all
// reading one atomically-swappable graph snapshot.
type Engine struct {
	cfg   Config
	pub   atomic.Pointer[published]
	cache *PlanCache
	pool  *tensor.Pool
	met   *Metrics

	// deltaMu serializes publications (SwapGraph and ApplyDelta):
	// generation arithmetic must be check-and-swap atomic with respect to
	// other writers, while readers stay lock-free on pub.
	deltaMu sync.Mutex

	queue chan *request
	stop  chan struct{}
	sem   chan struct{}

	admitMu   sync.RWMutex // guards enqueue vs. Close's no-new-senders barrier
	draining  atomic.Bool
	batcherWG sync.WaitGroup
	workerWG  sync.WaitGroup
	closeOnce sync.Once

	// batchSeq numbers batches; with obs tracing on it is the trace lane
	// (TID) per-request span trees group under in /debug/trace.
	batchSeq atomic.Int64
}

// New starts an engine serving snap with cfg. The returned engine has one
// batcher goroutine running; workers are spawned per batch, bounded by a
// semaphore. Close must be called to release them.
func New(cfg Config, snap *Snapshot) (*Engine, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	e := &Engine{
		cfg:   cfg,
		cache: NewPlanCache(),
		pool:  tensor.NewPool(),
		met:   NewMetrics(),
		queue: make(chan *request, cfg.QueueDepth),
		stop:  make(chan struct{}),
		sem:   make(chan struct{}, cfg.Workers),
	}
	if err := e.publish(snap, 1); err != nil {
		return nil, err
	}
	e.batcherWG.Add(1)
	go e.batcher()
	return e, nil
}

// Metrics exposes the engine's counters (read-only use expected).
func (e *Engine) Metrics() *Metrics { return e.met }

// Cache exposes the plan cache (for stats endpoints and tests).
func (e *Engine) Cache() *PlanCache { return e.cache }

// Generation returns the current snapshot generation. It starts at 1 and
// increments on every successful SwapGraph or ApplyDelta; deltas must
// address it (Delta.ParentGen) to publish.
func (e *Engine) Generation() uint64 { return e.pub.Load().gen }

// Draining reports whether Close has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// SwapGraph atomically publishes a new snapshot. Batches already running
// keep the snapshot they loaded; new batches see the new one. Plans for
// the new fingerprint compile lazily on first use.
func (e *Engine) SwapGraph(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("serve: nil snapshot")
	}
	e.deltaMu.Lock()
	err := e.publish(snap, e.pub.Load().gen+1)
	e.deltaMu.Unlock()
	if err != nil {
		return err
	}
	e.met.GraphSwaps.Add(1)
	return nil
}

// publish makes (snap, gen) what new batches read, with a sampler over it
// in sampled mode. Callers other than New hold deltaMu.
func (e *Engine) publish(snap *Snapshot, gen uint64) error {
	if e.cfg.Spec.Declare(1, 1).Typed() && !snap.typed() {
		return fmt.Errorf("serve: %s requires a heterogeneous snapshot", e.cfg.Spec.Arch)
	}
	p := &published{snap: snap, gen: gen}
	if len(e.cfg.FanOut) > 0 {
		// The sampler's own seed is never drawn from: every request
		// samples under its own (SampleAs).
		s, err := sampling.NewSampler(snap.Graph(), e.cfg.FanOut, 0)
		if err != nil {
			return err
		}
		p.sampler = s
	}
	e.pub.Store(p)
	e.met.Generation.Store(int64(gen))
	return nil
}

// ApplyDelta applies one graph delta against the current generation and
// publishes the child snapshot. The delta must address the generation it
// was built against (ErrStaleGeneration otherwise) — the optimistic-
// concurrency handshake that makes concurrent writers safe. Batches
// already running keep the parent; the returned stats carry the new
// generation.
func (e *Engine) ApplyDelta(d *Delta) (*DeltaStats, error) {
	if d == nil {
		return nil, fmt.Errorf("serve: nil delta")
	}
	if len(e.cfg.FanOut) > 0 {
		e.met.DeltasRejected.Add(1)
		return nil, ErrSampledDelta
	}
	start := time.Now()
	e.deltaMu.Lock()
	defer e.deltaMu.Unlock()
	cur := e.pub.Load()
	if d.ParentGen != cur.gen {
		e.met.DeltasRejected.Add(1)
		return nil, fmt.Errorf("%w: delta addresses generation %d, engine is at %d",
			ErrStaleGeneration, d.ParentGen, cur.gen)
	}
	opt := &DeltaOptions{
		FrontierLimit: e.cfg.DeltaFrontierLimit,
		Pool:          e.pool,
	}
	if e.cfg.EmbedCache && len(e.cfg.FanOut) == 0 {
		if m, err := e.model(cur.snap); err == nil {
			opt.Model = m
		}
	}
	child, st, err := ApplyDelta(cur.snap, d, opt)
	if err != nil {
		e.met.DeltasRejected.Add(1)
		return nil, err
	}
	gen := cur.gen + 1
	st.Gen = gen
	e.pub.Store(&published{snap: child, gen: gen}) // full-graph mode: no sampler to rebuild
	e.met.Deltas.Add(1)
	e.met.Generation.Store(int64(gen))
	switch st.Recompute {
	case "incremental":
		e.met.DeltasIncremental.Add(1)
	case "full":
		e.met.DeltasFull.Add(1)
	}
	e.met.DeltaApply.Observe(time.Since(start))
	if obs.Enabled() {
		obs.ObserveEvent("serve", "delta-apply", start, time.Since(start), int64(gen))
	}
	return st, nil
}

// Infer requests logits for the given vertices of the current snapshot.
// It blocks until the request is answered, its context expires, or
// admission is refused (ErrQueueFull / ErrDraining).
func (e *Engine) Infer(ctx context.Context, nodes []int32) (*Result, error) {
	e.met.Received.Add(1)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("serve: no nodes requested")
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.DefaultTimeout)
		defer cancel()
	}
	r := &request{ctx: ctx, nodes: nodes, done: make(chan reply, 1), admitted: time.Now()}

	e.admitMu.RLock()
	if e.draining.Load() {
		e.admitMu.RUnlock()
		e.met.RejectedDraining.Add(1)
		return nil, ErrDraining
	}
	select {
	case e.queue <- r:
		e.admitMu.RUnlock()
		e.met.Admitted.Add(1)
		e.met.QueueDepth.Add(1)
	default:
		e.admitMu.RUnlock()
		e.met.RejectedQueueFull.Add(1)
		return nil, ErrQueueFull
	}

	select {
	case rep := <-r.done:
		return rep.res, rep.err
	case <-ctx.Done():
		// The worker will still find the expired context and skip the
		// compute; the buffered done channel means it never blocks.
		e.met.Expired.Add(1)
		return nil, ctx.Err()
	}
}

// batcher forms micro-batches slot first: it takes one admitted request,
// waits for a worker slot, and only then drains whatever else is already
// queued, up to collectNoWait's cap, without waiting for more. With a
// worker idle a request is dispatched alone and at once; with every
// worker busy the batcher is parked on the slot while the queue fills
// behind it (backpressure: a full queue answers ErrQueueFull), so batches
// grow with load and cost no request a wait of their own. On stop it
// flushes everything still queued (graceful drain) before exiting.
func (e *Engine) batcher() {
	defer e.batcherWG.Done()
	for {
		select {
		case first := <-e.queue:
			e.dispatch(first)
		case <-e.stop:
			for {
				select {
				case r := <-e.queue:
					e.dispatch(r)
				default:
					return
				}
			}
		}
	}
}

func (e *Engine) dispatch(first *request) {
	e.sem <- struct{}{} // bounds concurrent batches; blocks the batcher when all workers are busy
	// A sender's wake-up runs the batcher ahead of every other runnable
	// goroutine, so on one processor callers that are ready to enqueue
	// would each find it waiting and be dispatched alone, in lockstep,
	// however many of them there are. Let them enqueue first.
	runtime.Gosched()
	batch := e.collectNoWait(first)
	e.met.QueueDepth.Add(-int64(len(batch)))
	e.workerWG.Add(1)
	go func() {
		defer func() {
			<-e.sem
			e.workerWG.Done()
		}()
		e.runBatch(batch)
	}()
}

// collectNoWait batches first with whatever is already queued: up to
// MaxBatch requests in sampled and embed-cache modes, where each request
// costs its own work, and the whole queue in per-batch full-graph mode,
// where one forward serves a batch of any size.
func (e *Engine) collectNoWait(first *request) []*request {
	limit := e.cfg.MaxBatch
	if len(e.cfg.FanOut) == 0 && !e.cfg.EmbedCache {
		limit = 1 + e.cfg.QueueDepth
	}
	batch := []*request{first}
	for len(batch) < limit {
		select {
		case r := <-e.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// Close gracefully drains the engine: admission stops immediately,
// everything already admitted is served, and all engine goroutines have
// exited when Close returns. Safe to call more than once.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.draining.Store(true)
		// Barrier: after this Lock/Unlock no Infer can be mid-enqueue, so
		// the batcher's final flush observes every admitted request.
		e.admitMu.Lock()
		e.admitMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		close(e.stop)
		e.batcherWG.Wait()
		e.workerWG.Wait()
	})
}

// runBatch serves one micro-batch: resolve the snapshot once (swap
// isolation), get the plan from the cache (single compile per key), run
// the forward(s), and answer every request.
func (e *Engine) runBatch(batch []*request) {
	picked := time.Now()
	bid := e.batchSeq.Add(1)
	e.met.Batches.Add(1)
	e.met.BatchedReqs.Add(int64(len(batch)))
	for _, r := range batch {
		r.picked = picked
		e.met.QueueWait.Observe(picked.Sub(r.admitted))
		if obs.Enabled() {
			obs.ObserveEvent("serve", "queue-wait", r.admitted, picked.Sub(r.admitted), bid)
		}
	}

	pub := e.pub.Load()
	snap := pub.snap
	model, err := e.model(snap)
	if err != nil {
		e.respondAll(batch, nil, err)
		return
	}

	live := batch[:0:len(batch)]
	for _, r := range batch {
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			r.done <- reply{err: ctxErr}
			continue
		}
		live = append(live, r)
	}

	inferStart := time.Now()
	if len(e.cfg.FanOut) == 0 {
		e.runFullBatch(live, pub, model)
	} else {
		e.runSampledBatch(live, pub, model)
	}
	if obs.Enabled() {
		obs.ObserveEvent("serve", "infer", inferStart, time.Since(inferStart), bid)
		obs.ObserveEvent("serve", "batch", picked, time.Since(picked), bid)
		obs.Add("serve", "batch", "requests", int64(len(batch)))
	}
}

func (e *Engine) model(snap *Snapshot) (*Model, error) {
	key := PlanKey{Spec: e.cfg.Spec.Key(), InDim: snap.FeatDim(), NumRel: snap.numRelations()}
	return e.cache.Get(key, func() (*Model, error) {
		return BuildModel(e.cfg.Spec, snap.FeatDim(), snap.numRelations())
	})
}

// runFullBatch computes one full-graph forward shared by the whole batch
// and gathers each request's rows from it. Output depends only on
// (model, snapshot), never on batch composition, so concurrent execution
// is byte-identical to serial. With EmbedCache on, the forward runs at
// most once per snapshot (delta children arrive pre-patched), the
// snapshot keeps its tensors and batches only gather; without it the
// forward's tensors are the batch's own and go back to the pool once
// every request has its rows.
func (e *Engine) runFullBatch(batch []*request, pub *published, model *Model) {
	if len(batch) == 0 {
		return
	}
	snap := pub.snap
	env := &ForwardEnv{Pool: e.pool, scoped: !e.cfg.EmbedCache}
	defer env.release()
	var logits *tensor.Tensor
	var err error
	if e.cfg.EmbedCache {
		logits, err = snap.EnsureEmbeddings(model, env)
	} else {
		env.G, env.Feat = snap.Graph(), snap.Features()
		NormsFor(model.Spec.Arch, snap, env.G, env)
		logits, err = model.Forward(env)
	}
	if err != nil {
		e.respondAll(batch, nil, err)
		return
	}
	for _, r := range batch {
		if bad := checkNodes(r.nodes, snap.NumVertices()); bad != nil {
			e.respond(r, nil, bad)
			continue
		}
		e.respond(r, &Result{
			Nodes:  r.nodes,
			Logits: tensor.GatherRows(logits, r.nodes),
			Gen:    pub.gen,
		}, nil)
	}
}

// runSampledBatch serves each request from its own sampled subgraph. The
// sampling seed is a pure function of (snapshot, requested nodes, config
// seed), so a request's answer does not depend on which batch it landed
// in — concurrent and serial execution agree bit for bit.
func (e *Engine) runSampledBatch(batch []*request, pub *published, model *Model) {
	for _, r := range batch {
		logits, err := e.inferSampled(r.nodes, pub, model)
		if err != nil {
			e.respond(r, nil, err)
			continue
		}
		e.respond(r, &Result{Nodes: r.nodes, Logits: logits, Gen: pub.gen}, nil)
	}
}

// inferSampled answers one sampled request. Stage l of L walks its
// block of the sample (sampling.Batch.Block(L−1−l)), so it computes only
// the rows the stages after it read, the last one the seeds'; the
// normalizers are bound once from the whole sample, and every dense
// product is dispatched from the whole sample's row count, so each row
// has the bits the all-rows forward gives it. Everything but the
// returned [len(nodes), classes] rows — gathered features, dense
// products, layer outputs — is drawn from the pool and back in it on
// return.
func (e *Engine) inferSampled(nodes []int32, pub *published, model *Model) (*tensor.Tensor, error) {
	snap := pub.snap
	if err := checkNodes(nodes, snap.NumVertices()); err != nil {
		return nil, err
	}
	b, err := pub.sampler.SampleAs(nodes, e.requestSeed(snap, nodes))
	if err != nil {
		return nil, err
	}
	feat := snap.Features()
	stages := len(model.prog.Stages)
	env := &ForwardEnv{G: b.Sub, Pool: e.pool, scoped: true, blocks: make([]*graph.Graph, stages)}
	for l := range env.blocks {
		if env.blocks[l], err = b.Block(stages - 1 - l); err != nil {
			return nil, err
		}
	}
	defer env.release()
	env.Feat = env.get(len(b.Vertices), feat.Cols())
	b.GatherFeaturesInto(env.Feat, feat)
	setNorms(model.prog, env, nil, env.G)
	logits, err := model.Forward(env)
	if err != nil {
		return nil, err
	}
	// The sampler numbers distinct seeds 0, 1, 2, … in order of first
	// appearance, so b.Vertices starts with them: a node seen for the
	// first time is the next one there, a repeated node is further back.
	out := tensor.New(len(nodes), logits.Cols())
	distinct := 0
	for i, v := range nodes {
		row := distinct
		if distinct < len(b.Vertices) && b.Vertices[distinct] == v {
			distinct++
		} else {
			row = slices.Index(b.Vertices[:distinct], v)
		}
		copy(out.Row(i), logits.Row(row))
	}
	return out, nil
}

func (e *Engine) requestSeed(snap *Snapshot, nodes []int32) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], snap.Fingerprint()^uint64(e.cfg.SampleSeed))
	h.Write(b[:])
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	return int64(h.Sum64())
}

func (e *Engine) respond(r *request, res *Result, err error) {
	if err != nil {
		e.met.Failed.Add(1)
	} else {
		res.Classes = tensor.ArgMaxRows(res.Logits)
		e.met.Completed.Add(1)
		now := time.Now()
		if !r.picked.IsZero() {
			e.met.InferLatency.Observe(now.Sub(r.picked))
		}
		e.met.TotalLatency.Observe(now.Sub(r.admitted))
	}
	r.done <- reply{res: res, err: err}
}

func (e *Engine) respondAll(batch []*request, res *Result, err error) {
	for _, r := range batch {
		e.respond(r, res, err)
	}
}

func checkNodes(nodes []int32, n int) error {
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("serve: node %d out of range [0,%d)", v, n)
		}
	}
	return nil
}
