package sched

import (
	"sync"
	"sync/atomic"
)

// job is one Do invocation. Chunks are claimed with an atomic counter —
// the same protocol as a GPU atomic block scheduler — so a worker stuck
// on a heavy chunk simply claims fewer, while idle workers drain the
// rest.
type job struct {
	fn     func(worker, chunk int)
	next   int64 // atomic claim counter
	chunks int
	wg     sync.WaitGroup
}

func (j *job) run(worker int) {
	for {
		c := int(atomic.AddInt64(&j.next, 1)) - 1
		if c >= j.chunks {
			return
		}
		j.fn(worker, c)
	}
}

// workItem hands a job slot to a pooled worker.
type workItem struct {
	j *job
	w int
}

var jobPool = sync.Pool{New: func() interface{} { return new(job) }}

// Pool is a set of persistent worker goroutines fed through a shared
// channel. Workers are spawned lazily up to the demand of the largest Do
// call and live until Close, so steady-state dispatch creates no
// goroutines. Most callers use the shared Default pool; owners of
// bounded-lifetime systems (servers, tests) can create their own so
// Close can verify that no workers leak.
type Pool struct {
	// mu serializes dispatch (read side) against Close (write side):
	// Do holds the read lock across its channel sends, so Close can
	// only close the channel when no send is in flight.
	mu      sync.RWMutex
	closed  bool
	workCh  chan workItem
	spawned int64 // atomic count of persistent workers started
	workers sync.WaitGroup
}

// NewPool creates an empty worker pool. The small channel buffer smooths
// bursts; when it is full the caller just keeps more chunks for itself
// (sends never block).
func NewPool() *Pool {
	return &Pool{workCh: make(chan workItem, 64)}
}

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the shared process-lifetime pool used by the
// package-level Do and For.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool() })
	return defaultPool
}

// ensureWorkers lazily grows the pool to n goroutines. Callers hold
// p.mu.RLock, which excludes Close: every worker registered here is
// observed by Close's WaitGroup wait.
func (p *Pool) ensureWorkers(n int) {
	for {
		cur := atomic.LoadInt64(&p.spawned)
		if int(cur) >= n {
			return
		}
		if atomic.CompareAndSwapInt64(&p.spawned, cur, cur+1) {
			p.workers.Add(1)
			go func() {
				defer p.workers.Done()
				for it := range p.workCh {
					it.j.run(it.w)
					it.j.wg.Done()
				}
			}()
		}
	}
}

// Do runs fn(worker, chunk) for every chunk in [0, chunks) using up to
// `workers` concurrent workers with atomic work stealing. See the
// package-level Do for the contract. On a closed pool every chunk runs
// serially on the calling goroutine — correctness does not depend on
// pool lifetime.
func (p *Pool) Do(chunks, workers int, fn func(worker, chunk int)) {
	if chunks <= 0 {
		return
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(0, c)
		}
		return
	}
	j := jobPool.Get().(*job)
	j.fn = fn
	j.chunks = chunks
	atomic.StoreInt64(&j.next, 0)

	p.mu.RLock()
	if !p.closed {
		p.ensureWorkers(workers - 1)
		for w := 1; w < workers; w++ {
			j.wg.Add(1)
			select {
			case p.workCh <- workItem{j, w}:
			default:
				// Pool saturated: the caller picks up the slack via
				// stealing.
				j.wg.Done()
			}
		}
	}
	p.mu.RUnlock()

	j.run(0)
	j.wg.Wait()
	j.fn = nil
	jobPool.Put(j)
}

// For is the Pool-scoped equivalent of the package-level For.
func (p *Pool) For(n, grain int, f func(lo, hi int)) {
	forOn(p, n, grain, f)
}

// Close tears the pool's workers down and waits for them to exit. Do
// calls issued after (or racing with) Close run their chunks serially on
// the caller; in-flight jobs complete normally. Closing twice is a no-op.
// The shared Default pool should never be closed.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.workCh)
	}
	p.mu.Unlock()
	p.workers.Wait()
}
