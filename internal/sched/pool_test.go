package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the process goroutine count drops to at
// most want, failing the test after a deadline. Goroutine teardown is
// asynchronous (Close waits for worker exit, but the runtime may lag in
// accounting), so a bounded retry loop beats a single snapshot.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: have %d, want ≤ %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolCloseReleasesWorkers(t *testing.T) {
	if MaxProcs < 2 {
		t.Skip("needs ≥2 procs to spawn pool workers")
	}
	base := runtime.NumGoroutine()

	p := NewPool()
	var count int64
	p.Do(64, MaxProcs, func(_, _ int) { atomic.AddInt64(&count, 1) })
	if count != 64 {
		t.Fatalf("ran %d/64 chunks", count)
	}
	if atomic.LoadInt64(&p.spawned) == 0 {
		t.Fatal("expected pool to spawn persistent workers")
	}

	p.Close()
	// Every spawned worker must exit: the process returns to (at most)
	// its pre-pool goroutine count.
	waitGoroutines(t, base)
}

func TestPoolCloseIsIdempotentAndDoStillRuns(t *testing.T) {
	p := NewPool()
	p.Do(8, 4, func(_, _ int) {})
	p.Close()
	p.Close() // second close must not panic

	// A closed pool degrades to serial execution, not to lost work.
	var count int64
	p.Do(32, 8, func(w, _ int) {
		if w != 0 {
			t.Errorf("closed pool used worker %d", w)
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 32 {
		t.Fatalf("ran %d/32 chunks on closed pool", count)
	}
}

func TestPoolConcurrentDoAndClose(t *testing.T) {
	// Dispatching concurrently with Close must neither panic (send on
	// closed channel) nor drop chunks.
	for iter := 0; iter < 50; iter++ {
		p := NewPool()
		done := make(chan int64)
		go func() {
			var count int64
			for i := 0; i < 20; i++ {
				p.Do(16, 4, func(_, _ int) { atomic.AddInt64(&count, 1) })
			}
			done <- atomic.LoadInt64(&count)
		}()
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		p.Close()
		if got := <-done; got != 20*16 {
			t.Fatalf("iter %d: ran %d/%d chunks across Close", iter, got, 20*16)
		}
	}
}

func TestWorkerIDsDenseAndUnique(t *testing.T) {
	p := NewPool()
	defer p.Close()
	const workers = 4
	var seen [workers]int64
	p.Do(1024, workers, func(w, _ int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
			return
		}
		atomic.AddInt64(&seen[w], 1)
	})
	var total int64
	for _, s := range seen {
		total += s
	}
	if total != 1024 {
		t.Fatalf("ran %d/1024 chunks", total)
	}
}
