package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// TestStress64MixedColdWarm is the concurrency acceptance test (run it
// under -race via `make race-serve`): 64 client goroutines issue a mix of
// cold and warm requests while other goroutines swap the graph snapshot
// underneath them. Requirements checked:
//
//   - zero dropped responses below the admission limit (every call
//     returns a result or a typed rejection),
//   - every successful response byte-matches the serial ground truth of
//     exactly one snapshot (no torn reads across swaps),
//   - each (model, graph) key compiles exactly once despite the races,
//   - the engine drains cleanly with no leaked goroutines.
func TestStress64MixedColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	before := runtime.NumGoroutine()

	// Three snapshots → three cold (model, graph) keys encountered at
	// unpredictable times as swappers rotate them.
	snaps := []*serve.Snapshot{
		snapFor(t, "cora", 0.05, 1),
		snapFor(t, "cora", 0.05, 2),
		snapFor(t, "cora", 0.05, 3),
	}
	spec := gcnSpec(7)
	truths := make([]*tensor.Tensor, len(snaps))
	minN := snaps[0].G.N
	for i, s := range snaps {
		truths[i] = groundTruth(t, spec, s)
		if s.G.N < minN {
			minN = s.G.N
		}
	}

	eng, err := serve.New(serve.Config{
		Spec:       spec,
		QueueDepth: 512, // above the offered load: nothing may be rejected
		MaxBatch:   8,
		Workers:    8,
	}, snaps[0])
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients  = 64
		perGo    = 8
		swappers = 4
	)

	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	for s := 0; s < swappers; s++ {
		swapWG.Add(1)
		go func(s int) {
			defer swapWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			for i := 0; ; i++ {
				select {
				case <-stopSwap:
					return
				default:
				}
				if err := eng.SwapGraph(snaps[rng.Intn(len(snaps))]); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		}(s)
	}

	var served, torn atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perGo; i++ {
				nodes := make([]int32, 1+rng.Intn(4))
				for j := range nodes {
					nodes[j] = int32(rng.Intn(minN))
				}
				res, err := eng.Infer(context.Background(), nodes)
				if err != nil {
					// The queue is sized above the offered load; any
					// rejection here is a dropped response.
					t.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				want := false
				for _, truth := range truths {
					if sameTensorBits(res.Logits, tensor.GatherRows(truth, nodes)) {
						want = true
						break
					}
				}
				if !want {
					torn.Add(1)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopSwap)
	swapWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if torn.Load() != 0 {
		t.Fatalf("%d responses matched no snapshot's serial ground truth", torn.Load())
	}
	if served.Load() != clients*perGo {
		t.Fatalf("served %d of %d requests", served.Load(), clients*perGo)
	}

	// At most one compile per distinct snapshot fingerprint, and the
	// singleflight accounting must agree with the map.
	hits, misses, compiles := eng.Cache().Stats()
	if compiles < 1 || compiles > int64(len(snaps)) {
		t.Fatalf("compiles = %d, want 1..%d", compiles, len(snaps))
	}
	if compiles != int64(eng.Cache().Len()) {
		t.Fatalf("compiles %d != cached entries %d", compiles, eng.Cache().Len())
	}
	if misses != compiles {
		t.Fatalf("misses %d != compiles %d", misses, compiles)
	}
	if hits+misses != eng.Metrics().Batches.Load() {
		t.Fatalf("cache lookups %d != batches %d", hits+misses, eng.Metrics().Batches.Load())
	}

	eng.Close()
	if _, err := eng.Infer(context.Background(), []int32{0}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain Infer: %v", err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}
