package train

import (
	"runtime"
	"strings"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/models"
	"seastar/internal/nn"
)

func TestRunTrainsGCN(t *testing.T) {
	ds := datasets.MustLoad("cora", 0.05, 3)
	env := models.NewEnv(device.New(device.V100), ds, 1)
	m, err := models.NewGCN(env, models.SysSeastar, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(env, m, Options{Epochs: 6, Warmup: 2, LR: 0.01})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.EpochNs) != 6 {
		t.Fatalf("epochs recorded: %d", len(res.EpochNs))
	}
	if res.AvgEpochNs <= 0 || res.PeakBytes <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.TestAcc < 0 || res.TestAcc > 1 {
		t.Fatalf("accuracy: %v", res.TestAcc)
	}
	if !strings.Contains(res.String(), "ms") {
		t.Fatalf("String: %q", res.String())
	}
}

func TestRunDeterministicEpochTimes(t *testing.T) {
	// Without dropout the simulated epoch time is identical across
	// epochs after warmup and across runs.
	ds := datasets.MustLoad("citeseer", 0.05, 4)
	run := func() Result {
		env := models.NewEnv(device.New(device.RTX2080Ti), ds, 2)
		m, err := models.NewGCN(env, models.SysDGL, 8)
		if err != nil {
			t.Fatal(err)
		}
		return Run(env, m, Options{Epochs: 4, Warmup: 1, LR: 0.01})
	}
	a, b := run(), run()
	if a.AvgEpochNs != b.AvgEpochNs {
		t.Fatalf("nondeterministic simulated time: %v vs %v", a.AvgEpochNs, b.AvgEpochNs)
	}
	// Post-warmup epochs are identical up to float64 accumulation ulps.
	if rel := (a.EpochNs[2] - a.EpochNs[3]) / a.EpochNs[2]; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("epoch times vary: %v", a.EpochNs)
	}
}

func TestRunReportsOOM(t *testing.T) {
	// Measure the resident footprint of model + data, then rebuild on a
	// device with only a small margin beyond it: PyG GAT's materialized
	// edge tensors must blow past it, producing an OOM result (not a
	// panic) — the mechanism behind the paper's "-" table entries.
	ds := datasets.MustLoad("amz_photo", 0.3, 5)
	big := device.New(device.V100)
	env := models.NewEnv(big, ds, 1)
	if _, err := models.NewGAT(env, models.SysPyG, 16); err != nil {
		t.Fatal(err)
	}
	resident := big.CurrentBytes()

	p := device.V100
	p.GlobalMemBytes = resident + 2<<20 // 2 MB of headroom
	env2, err := models.NewEnvChecked(device.New(p), ds, 1)
	if err != nil {
		t.Fatalf("env itself must fit: %v", err)
	}
	m, err := models.NewGAT(env2, models.SysPyG, 16)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(env2, m, Options{Epochs: 5, Warmup: 2, LR: 0.01})
	if !res.OOM || res.Err == nil {
		t.Fatalf("expected OOM result, got %+v", res)
	}
	if res.String() != "OOM" {
		t.Fatalf("String: %q", res.String())
	}
}

func TestNewEnvCheckedReportsConstructionOOM(t *testing.T) {
	ds := datasets.MustLoad("cora", 0.2, 5)
	p := device.V100
	p.GlobalMemBytes = 1 << 20 // 1 MB: features alone do not fit
	if _, err := models.NewEnvChecked(device.New(p), ds, 1); err == nil {
		t.Fatal("expected construction OOM")
	}
}

func TestOptionsClamping(t *testing.T) {
	ds := datasets.MustLoad("cora", 0.03, 6)
	env := models.NewEnv(device.New(device.V100), ds, 1)
	m, err := models.NewGCN(env, models.SysSeastar, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(env, m, Options{Epochs: 0, Warmup: 5, LR: 0.01})
	if len(res.EpochNs) != 1 || res.AvgEpochNs <= 0 {
		t.Fatalf("clamped run: %+v", res)
	}
}

// TestFullGraphEpochAllocatesNoTensors: once warm, a full-graph GCN epoch
// draws every op output, gradient and materialized value from the engine's
// pool. What it still allocates is bookkeeping (tape nodes, closures,
// binding maps, GEMM tile scratch): many small objects, none the size of
// an activation.
func TestFullGraphEpochAllocatesNoTensors(t *testing.T) {
	// Record every allocation, so the profile can be asked for sizes.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	ds := datasets.MustLoad("pubmed", 0.5, 3)
	env := models.NewEnv(device.New(device.V100), ds, 1)
	m, err := models.NewGCN(env, models.SysSeastar, 16)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(m.Params(), 0.01)
	epoch := func() {
		loss := env.E.CrossEntropyMasked(m.Forward(true), ds.Labels, ds.TrainMask)
		env.E.Backward(loss)
		opt.Step()
		env.E.EndIteration()
	}
	// tensorSized counts the objects allocated so far that are at least
	// as large as the logits, the smallest activation. Profile buckets are
	// keyed by stack and size, and lag allocation by two collections.
	smallest := int64(env.G.N * ds.NumClasses * 4)
	recs := make([]runtime.MemProfileRecord, 1<<13) // once: it is tensor-sized itself
	tensorSized := func() (objects int64) {
		runtime.GC()
		runtime.GC()
		n, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatalf("memory profile has %d records, the buffer %d", n, len(recs))
		}
		for _, r := range recs[:n] {
			if r.AllocObjects > 0 && r.AllocBytes/r.AllocObjects >= smallest {
				objects += r.AllocObjects
			}
		}
		return objects
	}
	epoch()
	if tensorSized() == 0 {
		t.Fatal("the profile missed the first epoch's tensors")
	}
	epoch()
	warm, before := env.E.PoolStats(), tensorSized()
	allocs := testing.AllocsPerRun(5, epoch)
	if n := tensorSized() - before; n != 0 {
		t.Errorf("warmed epochs made %d allocations of %d bytes or more", n, smallest)
	}
	if st := env.E.PoolStats(); st.Misses != warm.Misses || st.Hits == warm.Hits || st.BytesOut != 0 {
		t.Errorf("warmed epochs missed the pool: %+v after warm-up, %+v now", warm, st)
	}
	t.Logf("%.0f small allocations per warmed epoch", allocs)
}
