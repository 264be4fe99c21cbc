package sched

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// forceProcs pretends the machine has n cores for the duration of a test
// so the parallel paths are exercised even on small CI boxes.
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := MaxProcs
	MaxProcs = n
	t.Cleanup(func() { MaxProcs = old })
}

func TestUniform(t *testing.T) {
	cases := []struct{ n, parts int }{{0, 4}, {1, 4}, {4, 4}, {10, 3}, {100, 8}, {7, 100}}
	for _, c := range cases {
		rs := Uniform(c.n, c.parts)
		if c.n == 0 {
			if rs != nil {
				t.Fatalf("Uniform(0,%d) = %v, want nil", c.parts, rs)
			}
			continue
		}
		if len(rs) > c.parts {
			t.Fatalf("Uniform(%d,%d) produced %d ranges", c.n, c.parts, len(rs))
		}
		checkCover(t, rs, c.n)
	}
}

func TestOversubscribe(t *testing.T) {
	cases := []struct{ workers, perWorker, want int }{
		{4, 8, 32},
		{1, 1, 1},
		{0, 8, 8},   // degenerate worker count clamps to 1
		{4, 0, 4},   // degenerate granularity clamps to 1
		{-3, -2, 1}, // both degenerate
		{8, 2, 16},
	}
	for _, c := range cases {
		if got := Oversubscribe(c.workers, c.perWorker); got != c.want {
			t.Fatalf("Oversubscribe(%d, %d) = %d, want %d", c.workers, c.perWorker, got, c.want)
		}
	}
}

func TestEdgeBalancedCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		offsets := make([]int64, n+1)
		for r := 0; r < n; r++ {
			deg := int64(0)
			// Skewed degrees: a few heavy rows, many empty ones.
			switch rng.Intn(4) {
			case 0:
				deg = int64(rng.Intn(500))
			case 1:
				deg = int64(rng.Intn(10))
			}
			offsets[r+1] = offsets[r] + deg
		}
		maxChunks := 1 + rng.Intn(16)
		rs := EdgeBalanced(offsets, 2, maxChunks)
		if len(rs) > maxChunks {
			t.Fatalf("trial %d: %d chunks > maxChunks %d", trial, len(rs), maxChunks)
		}
		checkCover(t, rs, n)
	}
}

func TestEdgeBalancedBeatsUniformOnSkew(t *testing.T) {
	// A degree-sorted power-law-ish degree sequence: deg(r) ∝ 1/(r+1).
	const n, p = 4096, 8
	offsets := make([]int64, n+1)
	for r := 0; r < n; r++ {
		offsets[r+1] = offsets[r] + int64(8*n/(r+1))
	}
	const rowCost = 4
	eb := EdgeBalanced(offsets, rowCost, p*8)
	un := Uniform(n, p)
	mkEB := makespan(chunkWeights(offsets, rowCost, eb), p)
	mkUN := makespan(chunkWeights(offsets, rowCost, un), p)
	if mkEB*1.5 > mkUN {
		t.Fatalf("edge-balanced makespan %.0f not ≥1.5x better than uniform %.0f", mkEB, mkUN)
	}
	// And the balance must be real: no chunk (except possibly a single
	// unsplittable hub row) should exceed ~2 targets of weight.
	total := float64(offsets[n]) + rowCost*float64(n)
	for i, w := range chunkWeights(offsets, rowCost, eb) {
		r := eb[i]
		if r.Hi-r.Lo == 1 {
			continue // single row: cannot split further
		}
		if w > 2.5*total/float64(p*8) {
			t.Fatalf("chunk %d (%v) weight %.0f exceeds 2.5x target %.0f", i, r, w, total/float64(p*8))
		}
	}
}

// chunkWeights returns each range's weight under the EdgeBalanced cost
// model: edges(range) + rowCost·rows(range).
func chunkWeights(offsets []int64, rowCost float64, rs []Range) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(offsets[r.Hi]-offsets[r.Lo]) + rowCost*float64(r.Hi-r.Lo)
	}
	return out
}

// makespan list-schedules the chunk weights onto p workers in order —
// each chunk goes to the earliest-free worker, which is what the
// stealing loop achieves on idle cores — and returns the finishing time
// of the last worker.
func makespan(weights []float64, p int) float64 {
	busy := make([]float64, p)
	for _, w := range weights {
		min := 0
		for i := 1; i < p; i++ {
			if busy[i] < busy[min] {
				min = i
			}
		}
		busy[min] += w
	}
	var max float64
	for _, b := range busy {
		max = math.Max(max, b)
	}
	return max
}

func TestMakespan(t *testing.T) {
	if got := makespan([]float64{4, 1, 1, 1, 1}, 2); got != 4 {
		t.Fatalf("makespan = %v, want 4", got)
	}
	if got := makespan([]float64{1, 1, 1, 1}, 4); got != 1 {
		t.Fatalf("makespan = %v, want 1", got)
	}
	if got := makespan(nil, 3); got != 0 {
		t.Fatalf("makespan(nil) = %v, want 0", got)
	}
}

func TestDoRunsEveryChunkOnce(t *testing.T) {
	forceProcs(t, 8)
	for _, chunks := range []int{1, 2, 7, 64, 500} {
		var count int64
		seen := make([]int64, chunks)
		Do(chunks, Workers(chunks), func(w, c int) {
			if w < 0 || w >= 8 {
				t.Errorf("worker id %d out of range", w)
			}
			atomic.AddInt64(&seen[c], 1)
			atomic.AddInt64(&count, 1)
		})
		if count != int64(chunks) {
			t.Fatalf("chunks=%d: ran %d times", chunks, count)
		}
		for c, v := range seen {
			if v != 1 {
				t.Fatalf("chunk %d ran %d times", c, v)
			}
		}
	}
}

func TestDoWorkerIDsAreUniqueWithinCall(t *testing.T) {
	forceProcs(t, 8)
	// Each worker slot owns one cell; concurrent reuse of a slot within
	// a call would race (and trip -race) or double-count.
	slots := make([]int64, 8)
	Do(256, 8, func(w, c int) {
		atomic.AddInt64(&slots[w], 1)
	})
	var total int64
	for _, v := range slots {
		total += v
	}
	if total != 256 {
		t.Fatalf("slot counts sum to %d, want 256", total)
	}
}

func TestDoConcurrentCallers(t *testing.T) {
	forceProcs(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var sum int64
				Do(32, 4, func(_, c int) {
					atomic.AddInt64(&sum, int64(c))
				})
				if sum != 32*31/2 {
					t.Errorf("goroutine %d iter %d: sum %d", g, iter, sum)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFor(t *testing.T) {
	forceProcs(t, 8)
	for _, n := range []int{0, 1, 63, 64, 1000, 100003} {
		out := make([]int32, n)
		For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i]++
			}
		})
		for i, v := range out {
			if v != 1 {
				t.Fatalf("n=%d: element %d visited %d times", n, i, v)
			}
		}
	}
}

func TestForSerialBelowGrain(t *testing.T) {
	forceProcs(t, 8)
	calls := 0
	For(63, 64, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("small For made %d calls, want 1 (serial)", calls)
	}
}

func checkCover(t *testing.T, rs []Range, n int) {
	t.Helper()
	next := 0
	for _, r := range rs {
		if r.Lo != next || r.Hi <= r.Lo || r.Hi > n {
			t.Fatalf("bad range %v (next=%d, n=%d) in %v", r, next, n, rs)
		}
		next = r.Hi
	}
	if next != n {
		t.Fatalf("ranges cover [0,%d), want [0,%d)", next, n)
	}
}
