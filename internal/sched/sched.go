// Package sched is the shared CPU scheduling layer of the execution
// engine: the software analogue of the paper's degree-sorting + dynamic
// load balancing design (§6.3.3), applied to the host-side interpreter
// instead of GPU blocks.
//
// It provides two pieces:
//
//   - partitioning: EdgeBalanced splits CSR rows into contiguous chunks
//     of approximately equal *edge* weight (not row count), so hub
//     vertices of a power-law graph do not pile onto one worker;
//   - dispatch: Do feeds chunks to a persistent worker pool through an
//     atomic work counter — the claim loop the paper implements with the
//     GPU's hardware block scheduler. Workers are long-lived goroutines,
//     so a steady-state Do allocates nothing but its closure, and a For
//     nothing at all.
//
// Every parallel path in the repository (fused kernels, dense matmuls,
// elementwise tensor ops) goes through this package, replacing the
// previously duplicated maxProcs/chunking helpers.
package sched

import (
	"runtime"
	"sync"
)

// MaxProcs bounds the parallelism of every CPU execution path. It is a
// variable rather than a constant so tests can force multi-worker
// execution on small machines; production code treats it as read-only.
var MaxProcs = runtime.GOMAXPROCS(0)

// SetMaxProcs overrides the parallelism bound (clamped to at least 1)
// and returns the previous value. Benchmarks use it to measure scaling
// at controlled worker counts; it must not be called concurrently with
// running work.
func SetMaxProcs(n int) int {
	prev := MaxProcs
	if n < 1 {
		n = 1
	}
	MaxProcs = n
	return prev
}

// Range is a half-open interval [Lo, Hi) of rows or elements.
type Range struct{ Lo, Hi int }

// Workers returns the number of workers worth waking for n independent
// work items: min(MaxProcs, n), and at least 1.
func Workers(n int) int {
	w := MaxProcs
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Oversubscribe returns the chunk budget for workers workers at
// perWorker chunks each, clamped so a degenerate input still yields one
// chunk. It centralises the partitioners' chunk-count arithmetic:
// granularity changes move only how many pieces the row space is cut
// into, never which rows reduce together.
func Oversubscribe(workers, perWorker int) int {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 1 {
		perWorker = 1
	}
	return workers * perWorker
}

// Uniform splits [0, n) into parts equal-count ranges (the legacy static
// partition). Fewer ranges are returned when n < parts.
func Uniform(n, parts int) []Range {
	if n <= 0 || parts < 1 {
		return nil
	}
	size := (n + parts - 1) / parts
	out := make([]Range, 0, parts)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out
}

// EdgeBalanced partitions the len(offsets)-1 rows of a CSR into at most
// maxChunks contiguous ranges of approximately equal weight, where row r
// weighs (offsets[r+1]-offsets[r]) + rowCost edge-units. On degree-sorted
// power-law graphs this puts a handful of hub rows in the first chunks
// and thousands of tail rows in the last ones, so stealing workers finish
// together instead of one worker owning every hub.
func EdgeBalanced(offsets []int64, rowCost float64, maxChunks int) []Range {
	n := len(offsets) - 1
	if n <= 0 {
		return nil
	}
	if maxChunks < 1 {
		maxChunks = 1
	}
	total := float64(offsets[n]-offsets[0]) + rowCost*float64(n)
	target := total / float64(maxChunks)
	out := make([]Range, 0, maxChunks)
	lo := 0
	var acc float64
	for r := 0; r < n; r++ {
		acc += float64(offsets[r+1]-offsets[r]) + rowCost
		// Close the chunk once it reaches the target, unless doing so
		// would create more chunks than requested.
		if acc >= target && len(out) < maxChunks-1 {
			out = append(out, Range{lo, r + 1})
			lo = r + 1
			acc = 0
		}
	}
	if lo < n {
		out = append(out, Range{lo, n})
	}
	return out
}

// Do runs fn(worker, chunk) for every chunk in [0, chunks) using up to
// `workers` concurrent workers with atomic work stealing, on the shared
// process-lifetime pool. Worker ids are dense in [0, workers) and unique
// within the call, so callers can index worker-local arenas with them.
// The calling goroutine participates as worker 0, and Do returns only
// when every chunk has completed: writes made by fn happen-before Do's
// return.
func Do(chunks, workers int, fn func(worker, chunk int)) {
	Default().Do(chunks, workers, fn)
}

// forGrain trades dispatch overhead against steal granularity for For:
// each worker gets a few chunks so a slow chunk can be compensated.
const forChunksPerWorker = 4

// For runs f over contiguous sub-ranges of [0, n), serially when n is
// below grain elements (or only one worker is available), otherwise in
// parallel chunks of at least grain elements. It is the replacement for
// the hand-rolled parallel loops that used to live in tensor and kernels.
func For(n, grain int, f func(lo, hi int)) {
	forOn(Default(), n, grain, f)
}

func forOn(p *Pool, n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	maxChunks := (n + grain - 1) / grain
	workers := Workers(maxChunks)
	if workers <= 1 {
		f(0, n)
		return
	}
	chunks := workers * forChunksPerWorker
	if chunks > maxChunks {
		chunks = maxChunks
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	j := forJobs.Get().(*forJob)
	j.f, j.n, j.size = f, n, size
	p.Do(chunks, workers, j.chunk)
	j.f = nil
	forJobs.Put(j)
}

// forJob is one parallel For call's chunking. Jobs are pooled with their
// bound chunk function, so a warmed For allocates nothing.
type forJob struct {
	f       func(lo, hi int)
	n, size int
	chunk   func(worker, c int)
}

var forJobs = sync.Pool{New: func() any {
	j := new(forJob)
	j.chunk = j.run
	return j
}}

func (j *forJob) run(_, c int) {
	lo := c * j.size
	j.f(lo, min(lo+j.size, j.n))
}
