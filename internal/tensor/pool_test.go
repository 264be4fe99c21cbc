package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPoolClasses(t *testing.T) {
	// Classes are contiguous, at most 25 % above the request from 4
	// elements up, and classOf inverts classCap.
	for i := 0; i < 200; i++ {
		if got := classOf(classCap(i)); got != i {
			t.Fatalf("classOf(classCap(%d)) = %d", i, got)
		}
		if got := classOf(classCap(i+1) - 1); got != i {
			t.Fatalf("classOf(%d) = %d, want %d", classCap(i+1)-1, got, i)
		}
		if lo, hi := classCap(i), classCap(i+1); hi <= lo || 4*hi > 5*lo {
			t.Fatalf("class %d holds %d, class %d holds %d", i, lo, i+1, hi)
		}
	}
}

// TestPoolGetIsNew draws random shapes from a pool in use and checks every
// tensor is zeroed and exactly shaped, whatever the buffer held before.
func TestPoolGetIsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool()
	var live []*Tensor
	for it := 0; it < 2000; it++ {
		shape := []int{1 + rng.Intn(40), 1 + rng.Intn(40)}
		if rng.Intn(4) == 0 {
			shape = append(shape, 1+rng.Intn(4))
		}
		a := p.Get(shape...)
		n := 1
		for i, d := range shape {
			if a.Dim(i) != d {
				t.Fatalf("Get(%v) has shape %v", shape, a.Shape())
			}
			n *= d
		}
		if len(a.Shape()) != len(shape) || a.Size() != n {
			t.Fatalf("Get(%v) has shape %v, size %d", shape, a.Shape(), a.Size())
		}
		for i, v := range a.Data() {
			if v != 0 {
				t.Fatalf("Get(%v): element %d not zeroed: %v", shape, i, v)
			}
		}
		a.Fill(7)
		live = append(live, a)
		if len(live) > 8 {
			k := rng.Intn(len(live))
			p.Put(live[k])
			live = append(live[:k], live[k+1:]...)
		}
	}
	if st := p.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("trace exercised only one path: %+v", st)
	}
}

// TestPoolHitsWithinClass: a buffer serves any size of its class, in any
// shape, and no size outside it.
func TestPoolHitsWithinClass(t *testing.T) {
	for _, n := range []int{1, 4, 5, 9, 100, 1000, 4097, 160000} {
		c := 0
		if n > 4 {
			c = classOf(n-1) + 1
		}
		lo, hi := 1, classCap(c)
		if c > 0 {
			lo = classCap(c-1) + 1
		}
		for _, m := range []int{lo, (lo + hi) / 2, hi} {
			p := NewPool()
			p.Put(p.Get(n))
			if p.Get(m, 1); p.Stats().Hits != 1 {
				t.Fatalf("Put of %d elements did not serve Get(%d), same class [%d, %d]", n, m, lo, hi)
			}
		}
		for _, m := range []int{lo - 1, hi + 1} {
			p := NewPool()
			p.Put(p.Get(n))
			if m > 0 && m != n {
				if p.Get(m); p.Stats().Hits != 0 {
					t.Fatalf("Put of %d elements served Get(%d), outside class [%d, %d]", n, m, lo, hi)
				}
			}
		}
	}
}

// TestPoolIdleBoundedByDemand replays a random Get/Put trace whose shapes
// drift (as sampled batches' do) and checks the pool never holds more
// idle bytes than it has seen checked out at once, and accounts for every
// byte.
func TestPoolIdleBoundedByDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPool()
	var live []*Tensor
	var out, peak int64
	for it := 0; it < 20000; it++ {
		if len(live) == 0 || (len(live) < 12 && rng.Intn(2) == 0) {
			a := p.Get(1+rng.Intn(3000+it), 1+rng.Intn(8))
			live = append(live, a)
			out += int64(cap(a.Data())) * 4
			if out > peak {
				peak = out
			}
		} else {
			k := rng.Intn(len(live))
			out -= int64(cap(live[k].Data())) * 4
			p.Put(live[k])
			live = append(live[:k], live[k+1:]...)
		}
		st := p.Stats()
		if st.BytesOut != out {
			t.Fatalf("step %d: pool reports %d bytes out, trace has %d", it, st.BytesOut, out)
		}
		if st.BytesIdle > peak {
			t.Fatalf("step %d: %d idle bytes exceed the %d-byte peak demand", it, st.BytesIdle, peak)
		}
		var idle int64
		for i := range p.classes {
			idle += int64(len(p.classes[i].free)) * int64(classCap(i)) * 4
		}
		if st.BytesIdle != idle {
			t.Fatalf("step %d: pool reports %d idle bytes, free lists hold %d", it, st.BytesIdle, idle)
		}
	}
}

// TestPoolDropsLeastRecentlyUsedClass: when idle bytes must go, the class
// touched longest ago goes first.
func TestPoolDropsLeastRecentlyUsedClass(t *testing.T) {
	p := NewPool()
	old, hot := p.Get(1000), p.Get(3000)
	p.Put(old)
	p.Put(hot) // idle = peak demand: both stay
	p.Put(p.Get(3000))
	if st := p.Stats(); st.Hits != 1 || st.BytesIdle != (1024+3072)*4 {
		t.Fatalf("both buffers should be idle: %+v", st)
	}
	p.Put(New(3072)) // over the bound: the 1000-element class is older
	if p.Get(3000); p.Stats().Hits != 2 {
		t.Fatal("recently used class was dropped")
	}
	if p.Get(1000); p.Stats().Hits != 2 {
		t.Fatal("least recently used class survived")
	}
}

// TestPoolPutForeign: storage that did not come from Get — odd
// capacities, views into larger buffers — is filed under a class it
// fully covers or dropped, so no Get ever receives a buffer shorter than
// its class.
func TestPoolPutForeign(t *testing.T) {
	p := NewPool()
	p.Put(p.Get(4000)) // demand, so foreign buffers are not dropped at once
	p.Get(4000)

	p.Put(nil)
	p.Put(New(0, 4))
	p.Put(Scalar(1)) // below the smallest class
	if st := p.Stats(); st.BytesIdle != 0 {
		t.Fatalf("nil, empty or sub-class tensor was kept: %+v", st)
	}
	if got := p.Get(0, 4); got.Size() != 0 || len(got.Shape()) != 2 {
		t.Fatalf("empty Get has shape %v", got.Shape())
	}

	odd := New(1100) // between the 1024- and 1280-element classes
	p.Put(odd)
	if a := p.Get(1100); p.Stats().Hits != 1 || len(a.Data()) != 1100 {
		t.Fatalf("a 1100-element buffer must not serve the 1280-element class: %+v", p.Stats())
	}
	a := p.Get(1024)
	if st := p.Stats(); st.Hits != 2 || cap(a.Data()) != 1024 {
		t.Fatalf("a 1100-element buffer should serve the 1024-element class: %+v, cap %d", st, cap(a.Data()))
	}

	backing := New(5000)
	backing.Fill(3)
	view := FromSlice(backing.Data()[100:1200], 1100) // capacity runs to the end of backing
	p.Put(view)
	b := p.Get(4096)
	if &b.Data()[0] != &backing.Data()[100] || cap(b.Data()) != 4096 {
		t.Fatalf("view filed under the wrong class: cap %d", cap(b.Data()))
	}
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("element %d of a recycled view not zeroed", i)
		}
	}
	if backing.Data()[100+4096] != 3 {
		t.Fatal("Get wrote past the class capacity of a recycled view")
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Get(16+g, 4)
				b := p.Get(4)
				a.Data()[i%64]++
				if a.Data()[i%64] != 1 {
					t.Errorf("buffer shared between goroutines")
				}
				p.Put(a)
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.BytesOut != 0 || st.Hits+st.Misses != 3200 {
		t.Fatalf("after a balanced trace: %+v", st)
	}
}
