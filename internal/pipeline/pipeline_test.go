package pipeline

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/sampling"
	"seastar/internal/tensor"
)

// testEngine builds a small Zipf-graph engine.
func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := graph.ZipfDegree(rng, 600, 6, 1.0)
	feat := tensor.Randn(rng, 2, g.N, 5)
	labels := make([]int, g.N)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	s, err := sampling.NewSampler(g, []int{4, 3}, 17)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(s, feat, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// batchFingerprint hashes everything the compute stage can observe.
func batchFingerprint(b *Batch) uint64 {
	h := fnv.New64a()
	write := func(vs ...int) {
		for _, v := range vs {
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	write(b.Epoch, b.Index, b.B.Sub.N, b.B.Sub.M, b.B.SeedCount)
	for _, v := range b.B.Vertices {
		write(int(v))
	}
	for e := 0; e < b.B.Sub.M; e++ {
		write(int(b.B.Sub.Srcs[e]), int(b.B.Sub.Dsts[e]))
	}
	for _, l := range b.Labels {
		write(l)
	}
	for _, f := range b.Feat.Data() {
		write(int(int64(f * 1e6)))
	}
	return h.Sum64()
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ZipfDegree(rng, 50, 4, 1.0)
	feat := tensor.Randn(rng, 1, g.N, 3)
	labels := make([]int, g.N)
	s, _ := sampling.NewSampler(g, []int{2}, 1)

	if _, err := New(nil, feat, labels, Config{BatchSize: 8}); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := New(s, feat, labels, Config{BatchSize: 0}); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := New(s, feat, labels, Config{BatchSize: 8, Prefetch: -1}); err == nil {
		t.Fatal("negative prefetch accepted")
	}
	if _, err := New(s, tensor.New(3, 3), labels, Config{BatchSize: 8}); err == nil {
		t.Fatal("mis-shaped features accepted")
	}
	if _, err := New(s, feat, labels[:10], Config{BatchSize: 8}); err == nil {
		t.Fatal("short labels accepted")
	}
}

// TestPipelinedMatchesSerial is the engine-level half of the
// reproducibility story: for the same seed, the pipelined engine must
// deliver bitwise-identical batches in identical order, for any
// prefetch depth and worker count.
func TestPipelinedMatchesSerial(t *testing.T) {
	collect := func(cfg Config, epochs int) []uint64 {
		e := testEngine(t, cfg)
		var fps []uint64
		for ep := 0; ep < epochs; ep++ {
			err := e.RunEpoch(context.Background(), ep, func(b *Batch) error {
				fps = append(fps, batchFingerprint(b))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return fps
	}

	serial := collect(Config{BatchSize: 64, Prefetch: 0}, 3)
	for _, cfg := range []Config{
		{BatchSize: 64, Prefetch: 1, SampleWorkers: 1},
		{BatchSize: 64, Prefetch: 2, SampleWorkers: 3},
		{BatchSize: 64, Prefetch: 8, SampleWorkers: 4},
	} {
		got := collect(cfg, 3)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("pipelined batches diverge from serial at prefetch=%d workers=%d",
				cfg.Prefetch, cfg.SampleWorkers)
		}
	}
}

// TestGatherOverwritesPooledStorage: the gather draws its storage without
// zeroing it, so a batch gathered into a recycled NaN-filled buffer must
// equal the same batch gathered into a fresh tensor, bit for bit.
func TestGatherOverwritesPooledStorage(t *testing.T) {
	e := testEngine(t, Config{BatchSize: 64})
	plan, err := e.Sampler.PlanEpoch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for idx, seeds := range plan[:3] {
		sb, err := e.sampleOne(0, idx, seeds)
		if err != nil {
			t.Fatal(err)
		}
		want := sb.GatherFeatures(e.Feat)
		// One buffer of the batch's class, poisoned, is all the pool holds.
		poison := e.pool.Get(want.Shape()...)
		data := poison.Data()[:cap(poison.Data())]
		for i := range data {
			data[i] = float32(math.NaN())
		}
		e.pool.Put(poison)
		b := e.gather(0, idx, sb)
		if &b.Feat.Data()[0] != &data[0] {
			t.Fatal("the gather did not reuse the poisoned buffer")
		}
		for i, v := range want.Data() {
			if math.Float32bits(b.Feat.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("batch %d: element %d is %v in the pooled buffer, %v in a fresh one", idx, i, b.Feat.Data()[i], v)
			}
		}
		e.release(b)
	}
}

// waitGoroutines polls until the goroutine count returns to base
// (teardown accounting is asynchronous, as in sched's pool tests).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: have %d, want ≤ %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	e := testEngine(t, Config{BatchSize: 64, Prefetch: 3, SampleWorkers: 3})
	// Warm up once so any lazily-spawned process-lifetime goroutines
	// (e.g. the shared sched pool) are excluded from the baseline.
	if err := e.RunEpoch(context.Background(), 0, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for ep := 1; ep < 4; ep++ {
		if err := e.RunEpoch(context.Background(), ep, func(*Batch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

func TestMidEpochCancelDrainsAllStages(t *testing.T) {
	e := testEngine(t, Config{BatchSize: 32, Prefetch: 4, SampleWorkers: 3})
	if err := e.RunEpoch(context.Background(), 0, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	err := e.RunEpoch(ctx, 1, func(b *Batch) error {
		steps++
		if steps == 2 {
			cancel() // cancel mid-epoch while every stage holds work
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if steps < 2 {
		t.Fatalf("cancelled before reaching batch 2 (%d steps)", steps)
	}
	// Every stage goroutine must have drained and exited.
	waitGoroutines(t, base)
	cancel()
}

func TestStepErrorPropagatesAndDrains(t *testing.T) {
	e := testEngine(t, Config{BatchSize: 32, Prefetch: 3, SampleWorkers: 2})
	if err := e.RunEpoch(context.Background(), 0, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	boom := errors.New("boom")
	steps := 0
	err := e.RunEpoch(context.Background(), 1, func(b *Batch) error {
		steps++
		if steps == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want step error, got %v", err)
	}
	if steps != 3 {
		t.Fatalf("step ran %d times after error at 3", steps)
	}
	waitGoroutines(t, base)
}

func TestBackpressureBound(t *testing.T) {
	cfg := Config{BatchSize: 16, Prefetch: 2, SampleWorkers: 3}
	e := testEngine(t, cfg)
	// In-flight batches (sampled but not yet trained) are hard-bounded
	// by the credit semaphore: 2P + SampleWorkers.
	bound := int64(2*cfg.Prefetch + cfg.SampleWorkers)
	var worst int64
	err := e.RunEpoch(context.Background(), 0, func(b *Batch) error {
		time.Sleep(200 * time.Microsecond) // let sampling run ahead
		inflight := e.Metrics.Sampled.Load() - e.Metrics.Trained.Load()
		if inflight > atomic.LoadInt64(&worst) {
			atomic.StoreInt64(&worst, inflight)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > bound {
		t.Fatalf("backpressure violated: %d batches in flight, bound %d", worst, bound)
	}
}

func TestMetricsAccounting(t *testing.T) {
	e := testEngine(t, Config{BatchSize: 64, Prefetch: 2, SampleWorkers: 2})
	plan, _ := e.Sampler.PlanEpoch(0, 64)
	if err := e.RunEpoch(context.Background(), 0, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n := int64(len(plan))
	if e.Metrics.Sampled.Load() != n || e.Metrics.Gathered.Load() != n || e.Metrics.Trained.Load() != n {
		t.Fatalf("counters %d/%d/%d, want %d batches",
			e.Metrics.Sampled.Load(), e.Metrics.Gathered.Load(), e.Metrics.Trained.Load(), n)
	}
	if e.Metrics.Epochs.Load() != 1 {
		t.Fatalf("epochs %d", e.Metrics.Epochs.Load())
	}
	if e.Metrics.SampleTime.Count() != n || e.Metrics.ComputeTime.Count() != n {
		t.Fatal("stage histograms missed observations")
	}
	var sb strings.Builder
	e.Metrics.Write(&sb)
	out := sb.String()
	for _, want := range []string{
		"seastar_pipeline_batches_trained_total",
		"seastar_pipeline_sample_seconds_bucket",
		"seastar_pipeline_compute_stall_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}

	// The whole text of one Write on fixed observations, bucket bounds
	// (10µs–10s) and boundary placement included.
	m := NewMetrics()
	m.Sampled.Add(4)
	m.Gathered.Add(4)
	m.Trained.Add(3)
	m.Epochs.Add(1)
	m.Saves.Add(2)
	for _, d := range []time.Duration{5 * time.Microsecond, 10 * time.Microsecond, 1500 * time.Microsecond, 12 * time.Second} {
		m.SampleTime.Observe(d)
	}
	m.GatherTime.Observe(250 * time.Microsecond)
	m.ComputeTime.Observe(2 * time.Millisecond)
	sb.Reset()
	m.Write(&sb)
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(golden) {
		t.Fatalf("metrics exposition changed:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := nn.NewEngine(nil)
	w1 := e.Param(tensor.Randn(rng, 1, 4, 3), "w1")
	w2 := e.Param(tensor.Randn(rng, 2, 3, 2), "w2")
	params := []*nn.Variable{w1, w2}
	opt := nn.NewAdam(params, 0.01)

	// Take a few optimizer steps so the moments are non-trivial.
	for i := 0; i < 3; i++ {
		for _, p := range params {
			p.Grad = tensor.Randn(rng, float64(i+1), p.Value.Rows(), p.Value.Cols())
		}
		opt.Step()
	}

	ck := &Checkpoint{Epoch: 7, BaseSeed: 99, Params: CaptureParams(params), Opt: opt.State()}
	path := filepath.Join(t.TempDir(), "ck.gob")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.BaseSeed != 99 {
		t.Fatalf("header %d/%d", got.Epoch, got.BaseSeed)
	}

	// Mutate, then restore: values and moments must round-trip exactly.
	wantW1 := append([]float32(nil), w1.Value.Data()...)
	w1.Value.Data()[0] += 42
	opt2 := nn.NewAdam(params, 0.01)
	if err := RestoreParams(params, got.Params); err != nil {
		t.Fatal(err)
	}
	if err := opt2.SetState(got.Opt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantW1, w1.Value.Data()) {
		t.Fatal("param restore mismatch")
	}
	st := opt2.State()
	if !reflect.DeepEqual(st, got.Opt) {
		t.Fatal("optimizer state restore mismatch")
	}

	// Shape mismatches are rejected.
	if err := RestoreParams(params[:1], got.Params); err == nil {
		t.Fatal("param-count mismatch accepted")
	}
	bad := got.Params
	bad[0].Data = bad[0].Data[:2]
	if err := RestoreParams(params, bad); err == nil {
		t.Fatal("element-count mismatch accepted")
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.gob")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: %v", err)
	}
}
