package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a size-classed free list of tensor storage: the one place
// iteration-scoped tensors come from (nn op outputs and gradients, exec's
// materialized values, the pipeline's gathered batches, serving's
// intermediates). Everything an iteration or a request drew goes back
// here instead of to the GC, so a steady-state step reuses the same
// buffers.
//
// Element counts round up to a class — four per power of two, so at most
// 25 % slack — and a buffer serves any shape in its class: sampled batches
// almost never repeat a shape but almost always repeat a class. The pool
// bounds itself by demand: it never keeps more idle bytes than the most it
// has seen checked out at once, dropping the least recently used class
// first, so resident memory follows the working set and there is nothing
// to tune.
type Pool struct {
	mu      sync.Mutex
	classes [4 * bits.UintSize]class
	tick    int64 // advances on every Get and Put; orders classes for LRU
	stats   PoolStats
	peakOut int64 // most bytes ever checked out at once: the idle bound
}

type class struct {
	free [][]float32
	used int64 // tick of the last Get or Put
}

// PoolStats is a reading of the pool's gauges and lifetime counters.
type PoolStats struct {
	Hits, Misses        int64 // Gets served from the free list / freshly allocated
	BytesOut, BytesIdle int64 // checked out / held for reuse, by class capacity
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// classOf returns the largest class whose capacity is at most n ≥ 4.
// Class i holds (4 + i%4) << (i/4) elements: 4 5 6 7 8 10 12 14 16 20 …
func classOf(n int) int {
	e := bits.Len(uint(n)) - 3
	return 4*e + n>>e - 4
}

func classCap(i int) int { return (4 + i&3) << (i >> 2) }

// Get returns a zeroed tensor of the given shape, indistinguishable from
// New(shape...) except that its storage may have more capacity than the
// shape needs.
func (p *Pool) Get(shape ...int) *Tensor {
	t := p.GetDirty(shape...)
	clear(t.data)
	return t
}

// GetDirty is Get without the zeroing: the tensor holds whatever its
// storage last held. It is for a caller that writes every element before
// it reads any, as a gather of every row does.
func (p *Pool) GetDirty(shape ...int) *Tensor {
	n := volume(shape)
	if n == 0 {
		return New(shape...)
	}
	c := 0
	if n > 4 {
		c = classOf(n-1) + 1
	}
	size := classCap(c)
	bytes := int64(size) * 4
	p.mu.Lock()
	cl := &p.classes[c]
	var data []float32
	if k := len(cl.free) - 1; k >= 0 {
		data = cl.free[k]
		cl.free[k] = nil
		cl.free = cl.free[:k]
		p.stats.BytesIdle -= bytes
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	p.tick++
	cl.used = p.tick
	p.stats.BytesOut += bytes
	if p.stats.BytesOut > p.peakOut {
		p.peakOut = p.stats.BytesOut
	}
	p.mu.Unlock()
	if data == nil {
		data = make([]float32, size)
	}
	return FromSlice(data[:n], shape...)
}

// Put returns t's storage to the pool. The caller must not use t (or any
// view of its data) afterwards: the buffer will be handed out by a
// future Get. Storage that did not come from Get is filed under the
// largest class it can fully serve; nil, empty and sub-class tensors are
// ignored.
func (p *Pool) Put(t *Tensor) {
	if t == nil || len(t.data) == 0 || cap(t.data) < classCap(0) {
		return
	}
	c := classOf(cap(t.data))
	size := classCap(c)
	bytes := int64(size) * 4
	p.mu.Lock()
	defer p.mu.Unlock()
	cl := &p.classes[c]
	cl.free = append(cl.free, t.data[:size:size])
	p.tick++
	cl.used = p.tick
	p.stats.BytesIdle += bytes
	p.stats.BytesOut = max(p.stats.BytesOut-bytes, 0) // below 0: t was not drawn from this pool
	for p.stats.BytesIdle > p.peakOut {
		lru := -1
		for i := range p.classes {
			if len(p.classes[i].free) > 0 && (lru < 0 || p.classes[i].used < p.classes[lru].used) {
				lru = i
			}
		}
		cl := &p.classes[lru]
		k := len(cl.free) - 1
		cl.free[k] = nil
		cl.free = cl.free[:k]
		p.stats.BytesIdle -= int64(classCap(lru)) * 4
	}
}

// Stats returns the pool's current gauges and lifetime counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
