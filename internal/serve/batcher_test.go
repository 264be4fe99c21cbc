package serve_test

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// queueWaitsWithin returns how many requests waited at most le seconds (a
// histogram bound, as /metrics prints it) between admission and pickup.
func queueWaitsWithin(t *testing.T, eng *serve.Engine, le string) int64 {
	t.Helper()
	var buf bytes.Buffer
	eng.Metrics().Write(&buf, nil, nil)
	prefix := `seastar_serve_queue_wait_seconds_bucket{le="` + le + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no queue-wait bucket le=%s in /metrics", le)
	return 0
}

// TestIdleEngineDispatchesAtOnce: with a worker free, a request is its
// own batch and waits for no one — no timer stands between admission and
// pickup. (With the 1 ms batch window this replaced, every one of these
// waited ≥ 1 ms.)
func TestIdleEngineDispatchesAtOnce(t *testing.T) {
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7), MaxBatch: 8}, snapFor(t, "cora", 0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := eng.Infer(context.Background(), []int32{int32(i % 50)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Metrics().Batches.Load(); got != total {
		t.Fatalf("%d sequential requests on an idle engine ran as %d batches, want one each", total, got)
	}
	if fast := queueWaitsWithin(t, eng, "0.0005"); fast <= total/2 {
		t.Fatalf("queue-wait p50 ≥ 0.5 ms on an idle engine: only %d of %d requests were picked up sooner", fast, total)
	}
}

// TestBusyWorkerBatchesFromQueue: with the only worker busy the batcher
// waits for its slot while callers queue up behind it, so batches form
// from the backlog, and batching changes no answer. A sampled batch takes
// at most MaxBatch requests, each of which costs its own forward; a
// full-graph batch shares one forward whatever its size, so it takes the
// whole backlog and outgrows MaxBatch.
func TestBusyWorkerBatchesFromQueue(t *testing.T) {
	snap := snapFor(t, "cora", 0.25, 1)
	const maxBatch = 8
	const callers, perCaller = 64, 4
	nodesOf := func(c, i int) []int32 { return []int32{int32(c), int32(callers + c*perCaller + i)} }
	for _, mode := range []struct {
		name   string
		fanOut []int
	}{
		{"full-graph", nil},
		{"sampled", []int{4, 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := serve.Config{Spec: gcnSpec(7), Workers: 1, MaxBatch: maxBatch, FanOut: mode.fanOut}
			want := make([][]*tensor.Tensor, callers)
			truth := groundTruth(t, gcnSpec(7), snap)
			for c := range want {
				for i := 0; i < perCaller; i++ {
					if mode.fanOut == nil {
						want[c] = append(want[c], tensor.GatherRows(truth, nodesOf(c, i)))
					} else {
						want[c] = append(want[c], sampledReference(t, cfg, snap, nodesOf(c, i)))
					}
				}
			}
			eng, err := serve.New(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					for i := 0; i < perCaller; i++ {
						res, err := eng.Infer(context.Background(), nodesOf(c, i))
						if err != nil {
							t.Errorf("caller %d: %v", c, err)
							return
						}
						if !sameTensorBits(res.Logits, want[c][i]) {
							t.Errorf("caller %d request %d: batched answer differs from the serial one", c, i)
							return
						}
					}
				}(c)
			}
			close(start)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			m := eng.Metrics()
			batches, reqs := m.Batches.Load(), m.BatchedReqs.Load()
			if reqs != callers*perCaller {
				t.Fatalf("%d requests batched, want %d", reqs, callers*perCaller)
			}
			if batches >= reqs {
				t.Fatalf("%d batches for %d requests: nothing was batched behind the busy worker", batches, reqs)
			}
			if mode.fanOut != nil && batches*maxBatch < reqs {
				t.Fatalf("%d batches of at most %d cannot hold %d requests", batches, maxBatch, reqs)
			}
			if mode.fanOut == nil && batches*maxBatch >= reqs {
				t.Fatalf("%d batches for %d requests average at most MaxBatch %d: full-graph batches did not drain the backlog",
					batches, reqs, maxBatch)
			}
		})
	}
}

// TestCloseServesFullQueue closes the engine at its worst moment — the
// one worker busy, the batcher parked on its slot, the queue full and
// already refusing — and every admitted request must still be answered.
func TestCloseServesFullQueue(t *testing.T) {
	eng, err := serve.New(serve.Config{
		Spec: gcnSpec(7), Workers: 1, MaxBatch: 2, QueueDepth: 4,
	}, snapFor(t, "cora", 0.25, 1))
	if err != nil {
		t.Fatal(err)
	}
	const total = 64
	var answered, refused atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Infer(context.Background(), []int32{0, 1})
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrDraining):
				refused.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// A 429 means the queue is full, which it can only be while the
	// worker is busy and the batcher is waiting for it.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().RejectedQueueFull.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue of depth 4 under 64 concurrent callers never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}
	eng.Close()
	wg.Wait()
	if answered.Load()+refused.Load() != total {
		t.Fatalf("answered %d + refused %d != %d (dropped responses)", answered.Load(), refused.Load(), total)
	}
	m := eng.Metrics()
	if m.Admitted.Load() != answered.Load() || m.Completed.Load() != answered.Load() {
		t.Fatalf("%d admitted, %d completed, %d answered: Close dropped admitted requests",
			m.Admitted.Load(), m.Completed.Load(), answered.Load())
	}
}
