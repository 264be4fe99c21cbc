package train

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/obs"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// synthZipf builds a power-law node-classification dataset like the
// kernels benchmark's, at test scale.
func synthZipf(t *testing.T, seed int64, n, avgDeg, featDim, classes int) *datasets.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ZipfDegree(rng, n, avgDeg, 1.0)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return &datasets.Dataset{
		Name: "zipf-synth", G: g,
		Feat:   tensor.Randn(rng, 1, n, featDim),
		Labels: labels, NumClasses: classes, Scale: 1,
	}
}

func heteroDS(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Load("aifb", 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSAGEProgramRunsOnTheVM pins the mini-batch model's edge loops to the
// columnar VM in both passes: the forward gather and the backward
// Agg<S>(EdgeView(dy)), which specializes only because EdgeView aliases
// its operand. This is program.MiniBatchSAGE's "minibatch-sage" row of
// models.TestSpecializationCoverage, which is not that table's mean-SAGE
// (the MatMul sits inside the vertex function here, and there is no 1/deg
// scale).
func TestSAGEProgramRunsOnTheVM(t *testing.T) {
	dag, err := program.MiniBatchSAGE(16, 4).Stages[0].Plan.Trace()
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	units := 0
	for _, pass := range []struct {
		plan *fusion.Plan
		kern func(*fusion.Unit) *kernels.Kernel
	}{{c.FwdPlan, c.FwdKernel}, {c.BwdPlan, c.BwdKernel}} {
		for _, u := range pass.plan.Units {
			if u.Kind != fusion.KindSeastar {
				continue
			}
			units++
			if ok, name := pass.kern(u).Specialized(); !ok || name != "gather" {
				t.Errorf("unit %d: specialized=%v %q, want the gather pattern", u.ID, ok, name)
			}
		}
	}
	if units != 2 {
		t.Errorf("program has %d seastar units, want 2 (forward and backward aggregation)", units)
	}
}

// TestMiniBatchPipelinedEqualsSerial is the paper-facing property test:
// for fixed seeds, pipelined mini-batch training produces a
// bitwise-identical per-batch loss curve to the serial path, on both a
// Zipf power-law graph and a heterogeneous dataset.
func TestMiniBatchPipelinedEqualsSerial(t *testing.T) {
	cases := []struct {
		name string
		ds   *datasets.Dataset
	}{
		{"zipf", synthZipf(t, 5, 800, 6, 8, 4)},
		{"hetero-aifb", heteroDS(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := MiniBatchOptions{
				Epochs: 2, BatchSize: 128, FanOut: []int{4, 3},
				LR: 0.02, Seed: 42, DegreeSort: true,
			}

			serialOpts := base
			serialOpts.Prefetch = 0
			serial, err := RunMiniBatch(context.Background(), tc.ds, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Losses) == 0 {
				t.Fatal("serial run produced no batches")
			}

			for _, pw := range []struct{ p, w int }{{1, 1}, {3, 3}} {
				pipeOpts := base
				pipeOpts.Prefetch, pipeOpts.SampleWorkers = pw.p, pw.w
				pipe, err := RunMiniBatch(context.Background(), tc.ds, pipeOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Losses, pipe.Losses) {
					t.Fatalf("loss curves diverge at prefetch=%d workers=%d:\nserial %v\npipe   %v",
						pw.p, pw.w, head(serial.Losses), head(pipe.Losses))
				}
				if serial.SeedAcc != pipe.SeedAcc {
					t.Fatalf("accuracy diverges: %v vs %v", serial.SeedAcc, pipe.SeedAcc)
				}
			}
		})
	}
}

func head(xs []float32) []float32 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}

// TestMiniBatchLossDecreases sanity-checks that the pipelined trainer
// actually learns.
func TestMiniBatchLossDecreases(t *testing.T) {
	ds := synthZipf(t, 9, 600, 6, 8, 3)
	opts := DefaultMiniBatchOptions()
	opts.Epochs, opts.BatchSize, opts.FanOut = 4, 128, []int{4}
	opts.Prefetch, opts.SampleWorkers = 2, 2
	opts.LR, opts.Seed = 0.05, 3
	res, err := RunMiniBatch(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Epochs[0].AvgLoss
	last := res.Epochs[len(res.Epochs)-1].AvgLoss
	if last >= first {
		t.Fatalf("loss did not drop: %.4f → %.4f", first, last)
	}
}

// TestMiniBatchCheckpointResume: training 2+2 epochs through a
// checkpoint must reproduce the 4-epoch run bitwise from the resume
// point.
func TestMiniBatchCheckpointResume(t *testing.T) {
	ds := synthZipf(t, 12, 500, 5, 6, 3)
	base := MiniBatchOptions{
		Epochs: 4, BatchSize: 100, FanOut: []int{3, 2},
		Prefetch: 2, SampleWorkers: 2, LR: 0.02, Seed: 77,
		DegreeSort: true,
	}
	straight, err := RunMiniBatch(context.Background(), ds, base)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ck.gob")
	firstHalf := base
	firstHalf.Epochs = 2
	firstHalf.CheckpointPath = ckpt
	if _, err := RunMiniBatch(context.Background(), ds, firstHalf); err != nil {
		t.Fatal(err)
	}

	second := base
	second.CheckpointPath = ckpt
	resumed, err := RunMiniBatch(context.Background(), ds, second)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StartEpoch != 2 {
		t.Fatalf("resumed at epoch %d, want 2", resumed.StartEpoch)
	}

	// The resumed run's curve must equal the straight run's tail.
	perEpoch := len(straight.Losses) / 4
	wantTail := straight.Losses[2*perEpoch:]
	if !reflect.DeepEqual(wantTail, resumed.Losses) {
		t.Fatalf("resumed curve diverges:\nwant %v\ngot  %v", head(wantTail), head(resumed.Losses))
	}

	// A mismatched seed must refuse to resume (the epoch plans would
	// silently diverge).
	bad := second
	bad.Seed = 78
	if _, err := RunMiniBatch(context.Background(), ds, bad); err == nil {
		t.Fatal("checkpoint with mismatched seed accepted")
	}
}

func TestMiniBatchCancel(t *testing.T) {
	ds := synthZipf(t, 15, 600, 5, 6, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultMiniBatchOptions()
	opts.Epochs, opts.BatchSize = 2, 64
	_, err := RunMiniBatch(ctx, ds, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestMiniBatchHeapFlat is the regression test for the mini-batch leak: a
// sampled batch almost never repeats a shape, and a free list keyed by
// exact shape kept a buffer for every one it had ever seen. From the third
// epoch on, neither the live heap nor the pools' idle bytes may grow by
// more than a few MB.
func TestMiniBatchHeapFlat(t *testing.T) {
	ds := synthZipf(t, 5, 20000, 8, 32, 8)
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()

	idleBytes := func() int64 {
		var idle int64
		for _, e := range obs.Snapshot() {
			if e.Name == "pool" && (e.Cat == "exec" || e.Cat == "pipeline") {
				idle += e.Counters["bytes_idle"]
			}
		}
		return idle
	}
	const slack = 4 << 20
	var heap0, idle0 int64
	opts := DefaultMiniBatchOptions()
	opts.Epochs, opts.BatchSize, opts.Prefetch = 10, 512, 2
	opts.Progress = func(st EpochStats) {
		if st.Epoch < 2 {
			return
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap, idle := int64(ms.HeapAlloc), idleBytes()
		if st.Epoch == 2 {
			heap0, idle0 = heap, idle
			if idle == 0 {
				t.Error("no pool published its idle bytes")
			}
			return
		}
		if heap-heap0 > slack {
			t.Errorf("epoch %d: live heap grew from %d to %d bytes since epoch 2", st.Epoch, heap0, heap)
		}
		if idle-idle0 > slack {
			t.Errorf("epoch %d: pooled idle bytes grew from %d to %d since epoch 2", st.Epoch, idle0, idle)
		}
	}
	if _, err := RunMiniBatch(context.Background(), ds, opts); err != nil {
		t.Fatal(err)
	}
}
