package train

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/obs"
	"seastar/internal/program"
	"seastar/internal/sampling"
	"seastar/internal/tensor"
)

// synthZipf builds a power-law node-classification dataset like the
// kernels benchmark's, at test scale.
func synthZipf(t testing.TB, seed int64, n, avgDeg, featDim, classes int) *datasets.Dataset {
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
// columnar VM in both passes: the forward gather of h, and the backward
// gather that would give h a gradient. This is program.MiniBatchSAGE's
// "minibatch-sage" row of models.TestSpecializationCoverage, which is not
// that table's mean-SAGE (the MatMul sits inside the vertex function here,
// after the aggregation, and there is no 1/deg scale).
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
	for _, p := range []*exec.Pass{c.Fwd, c.Bwd} {
		for _, u := range p.Plan.Units {
			if u.Kind != fusion.KindSeastar {
				continue
			}
			units++
			if name := p.Kernel(u).Specialized(); name != "gather" {
				t.Errorf("unit %d: plan %q, want the gather pattern", u.ID, name)
			}
		}
	}
	if units != 2 {
		t.Errorf("program has %d seastar units, want 2 (forward and backward aggregation)", units)
	}
}

// TestMiniBatchStepLaunchesOneUnit: the mini-batch model aggregates before
// it multiplies, and its input h takes no gradient, so one training step
// launches exactly one fused unit, the forward gather, and none in the
// backward. Launches are counted from the obs "kern" spans the benchmark's
// kernels.* metrics read.
func TestMiniBatchStepLaunchesOneUnit(t *testing.T) {
	ds := synthZipf(t, 3, 600, 8, 8, 4)
	s, err := sampling.NewSampler(ds.G, DrawnFanOut(ds, []int{4, 3}), 9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanEpoch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SampleSeeded(plan[0], sampling.DeriveSeed(9, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	depthStep(t, miniBatchModel(ds), ds, b, true)
	launches := map[string]int64{}
	for _, e := range obs.Snapshot() {
		if e.Cat == "kern" {
			launches[e.Name[:strings.Index(e.Name, "/")]] += e.Count
		}
	}
	if launches["fwd"] != 1 || launches["bwd"] != 0 || len(launches) > 2 {
		t.Fatalf("one step launched %v fused units, want fwd:1 and no bwd", launches)
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
				LR: 0.02, Seed: 42,
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

// TestMiniBatchDepthBitwise is the property RunMiniBatch's one-hop
// sampling and its block rest on: RunMiniBatch's step (forward, loss,
// backward) on the block of the batch sampled with the drawn fan-out —
// its in-CSR cut to the seeds — gives the loss and the W gradient of the
// step on the whole batch sampled with the full fan-out, its loss masked
// to the seeds, bit for bit. The deeper batch's extra rows and edges carry
// exactly zero gradient, and every product adds them after the shared
// rows. One shape keeps all products below the naive GEMM threshold and
// one above it: a pair straddling it may switch GEMM paths
// (tensor.MatMulSameKernel), which reassociates the sums. Inside one
// batch the block's seed-row products are dispatched from its vertex
// count, as the whole batch's are.
func TestMiniBatchDepthBitwise(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		n, feat, classes, batch, seed int
		fan                           []int
		blocked                       bool
	}{
		{"naive", 600, 8, 4, 24, 3, []int{4, 3}, false},
		{"blocked", 5000, 64, 8, 128, 4, []int{10, 5}, true},
		{"replayed", 5000, 64, 8, 40, 5, []int{10, 5}, true}, // 40 seed rows alone would take the naive path
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := synthZipf(t, int64(tc.seed), tc.n, 8, tc.feat, tc.classes)
			prog := miniBatchModel(ds)
			drawn := DrawnFanOut(ds, tc.fan)
			if len(drawn) >= len(tc.fan) {
				t.Fatalf("drawn fan-out %v is not shallower than %v", drawn, tc.fan)
			}
			shallow, err := sampling.NewSampler(ds.G, drawn, 9)
			if err != nil {
				t.Fatal(err)
			}
			deep, err := sampling.NewSampler(ds.G, tc.fan, 9)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := deep.PlanEpoch(0, tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, seeds := range plan[:3] {
				seed := sampling.DeriveSeed(9, 0, i)
				a, err := shallow.SampleSeeded(seeds, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := deep.SampleSeeded(seeds, seed)
				if err != nil {
					t.Fatal(err)
				}
				// Every product is [rows, feat]·[feat, classes] or its
				// transpose over the rows: on the naive side even with the
				// deep block's rows, on the blocked side even with the
				// shallow block's.
				na, nb := len(a.Vertices), len(b.Vertices)
				if tc.blocked && !tensor.MatMulSameKernel(na, 1<<20, tc.feat, tc.classes) ||
					!tc.blocked && !tensor.MatMulSameKernel(nb, 1, tc.feat, tc.classes) {
					t.Fatalf("batch %d: %d and %d rows do not keep every product on the %s GEMM path", i, na, nb, tc.name)
				}
				if na >= nb {
					t.Fatalf("batch %d: the deeper block has %d rows, the shallow one %d", i, nb, na)
				}
				la, ga := depthStep(t, prog, ds, a, true)
				lb, gb := depthStep(t, prog, ds, b, false)
				if math.Float32bits(la) != math.Float32bits(lb) {
					t.Errorf("batch %d: loss %v on %d rows, %v on %d rows", i, la, na, lb, nb)
				}
				for j, x := range ga.Data() {
					if math.Float32bits(x) != math.Float32bits(gb.Data()[j]) {
						t.Fatalf("batch %d: W gradient differs at %d: %v on %d rows, %v on %d rows",
							i, j, x, na, gb.Data()[j], nb)
					}
				}
			}
		})
	}
}

// depthStep runs one training step on a sampled batch with freshly drawn
// weights, and returns the loss and W's gradient: RunMiniBatch's step on
// the seeds' block, or with block false, the step on the whole batch with
// its loss masked to the seeds.
func depthStep(t *testing.T, prog *program.Program, ds *datasets.Dataset, b *sampling.Batch, block bool) (float32, *tensor.Tensor) {
	t.Helper()
	e := nn.NewEngine(nil)
	w := prog.Draw(e, rand.New(rand.NewSource(1)))
	net, err := program.Lower(prog, w)
	if err != nil {
		t.Fatal(err)
	}
	g, labels, mask := b.Sub, make([]int, len(b.Vertices)), make([]bool, len(b.Vertices))
	for i, v := range b.Vertices {
		labels[i], mask[i] = ds.Labels[v], i < b.SeedCount
	}
	if block {
		if g, err = g.DstPrefix(b.SeedCount); err != nil {
			t.Fatal(err)
		}
		labels, mask = labels[:b.SeedCount], nil
	}
	out, err := net.Forward(exec.NewRuntime(e, g), e.Input(b.GatherFeatures(ds.Feat), "h"), nil)
	if err != nil {
		t.Fatal(err)
	}
	loss := e.CrossEntropyMasked(out, labels, mask)
	e.Backward(loss)
	return loss.Value.At1(0), w["W"].Grad
}

// BenchmarkMiniBatchEpoch times one pipelined RunMiniBatch epoch shaped
// like the train-mb-sage workload: a 50 000-vertex Zipf graph (average
// in-degree 8), width 64, 8 classes, batch 512, fan-out 10,5, Prefetch 4
// and 2 sample workers. The first epoch warms the pools and is not timed.
func BenchmarkMiniBatchEpoch(b *testing.B) {
	ds := synthZipf(b, 1, 50000, 8, 64, 8)
	opts := MiniBatchOptions{
		Epochs: 1 + b.N, BatchSize: 512, FanOut: []int{10, 5},
		Prefetch: 4, SampleWorkers: 2, LR: 0.01, Seed: 1,
		Progress: func(st EpochStats) {
			if st.Epoch == 0 {
				b.ResetTimer()
			}
		},
	}
	b.ReportAllocs()
	if _, err := RunMiniBatch(context.Background(), ds, opts); err != nil {
		b.Fatal(err)
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
