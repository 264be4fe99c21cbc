package bench

import (
	"bytes"
	"strings"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/models"
)

// quickConfig shrinks everything so unit tests run in seconds while
// keeping the shape properties intact. The figure-shape tests run in
// parallel: each builds its own datasets, devices and models, and none
// writes a package-level variable (sched.MaxProcs, the SIMD switch and
// obs tracing are only read).
func quickConfig() Config {
	return Config{
		Epochs: 3, Warmup: 1, Hidden: 8, Seed: 1,
		GPUs: []string{"1080Ti"},
		ScaleOverride: func(name string) float64 {
			switch name {
			case "reddit":
				return 1.0 / 256
			case "bgs":
				return 1.0 / 32
			case "aifb", "mutag":
				return 0.1
			default:
				return 0.05
			}
		},
	}
}

func cellsOf(ms []Measurement) map[string]Measurement {
	out := map[string]Measurement{}
	for _, m := range ms {
		out[m.Model+"/"+m.Dataset+"/"+string(m.System)+"/"+m.GPU] = m
	}
	return out
}

func TestFig10ShapeSeastarWins(t *testing.T) {
	t.Parallel()
	cfg := quickConfig()
	cfg.Datasets = []string{"amz_photo", "pubmed"}
	cfg.Epochs, cfg.Warmup = 2, 0
	cfg.ScaleOverride = func(name string) float64 { return 0.1 }
	ms := Fig10(cfg)
	if len(ms) != 2*3*1*3 { // datasets × models × gpus × systems
		t.Fatalf("cells: %d", len(ms))
	}
	cells := cellsOf(ms)
	for _, model := range []string{"gat", "gcn", "appnp"} {
		for _, ds := range []string{"amz_photo", "pubmed"} {
			sea := cells[model+"/"+ds+"/seastar/1080Ti"]
			dgl := cells[model+"/"+ds+"/dgl/1080Ti"]
			pyg := cells[model+"/"+ds+"/pyg/1080Ti"]
			if sea.Result.Err != nil || dgl.Result.Err != nil || pyg.Result.Err != nil {
				t.Fatalf("%s/%s errored: %v %v %v", model, ds,
					sea.Result.Err, dgl.Result.Err, pyg.Result.Err)
			}
			if sea.EpochMs() >= dgl.EpochMs() {
				t.Errorf("%s/%s: seastar %.2fms not faster than dgl %.2fms",
					model, ds, sea.EpochMs(), dgl.EpochMs())
			}
			if sea.EpochMs() >= pyg.EpochMs() {
				t.Errorf("%s/%s: seastar %.2fms not faster than pyg %.2fms",
					model, ds, sea.EpochMs(), pyg.EpochMs())
			}
		}
	}
}

func TestFig11ShapePyGMemoryDominates(t *testing.T) {
	t.Parallel()
	cfg := quickConfig()
	cfg.Datasets = []string{"ca_cs"}
	cfg.ScaleOverride = func(string) float64 { return 0.1 }
	ms := Fig11(cfg)
	cells := cellsOf(ms)
	for _, model := range []string{"gat", "gcn"} {
		sea := cells[model+"/ca_cs/seastar/2080Ti"]
		pyg := cells[model+"/ca_cs/pyg/2080Ti"]
		if pyg.PeakMB() <= sea.PeakMB() {
			t.Errorf("%s: pyg peak %.1fMB should exceed seastar %.1fMB",
				model, pyg.PeakMB(), sea.PeakMB())
		}
	}
}

func TestFig11RedditPyGOOM(t *testing.T) {
	t.Parallel()
	// Even at reduced instantiation scale, the extrapolated allocator
	// must reject PyG's edge tensors on the 11 GB device while Seastar
	// and DGL fit — Figure 11's headline.
	cfg := quickConfig()
	cfg.Datasets = []string{"reddit"}
	cfg.Models = []string{"gcn", "appnp"}
	// One epoch reaches the peak: the simulated allocator is deterministic
	// and frees everything between iterations
	// (exec.TestMemoryFreedBetweenIterations).
	cfg.Epochs, cfg.Warmup = 1, 0
	cfg.ScaleOverride = func(string) float64 { return 1.0 / 128 }
	ms := Fig11(cfg)
	cells := cellsOf(ms)
	if !cells["gcn/reddit/pyg/2080Ti"].Result.OOM {
		t.Error("PyG GCN on reddit must OOM on 11GB")
	}
	if cells["gcn/reddit/seastar/2080Ti"].Result.OOM {
		t.Error("Seastar GCN on reddit must fit")
	}
	if cells["gcn/reddit/dgl/2080Ti"].Result.OOM {
		t.Error("DGL GCN on reddit must fit")
	}
	sea := cells["appnp/reddit/seastar/2080Ti"]
	dgl := cells["appnp/reddit/dgl/2080Ti"]
	if sea.Result.OOM || dgl.Result.OOM {
		t.Fatal("APPNP should fit for seastar and dgl")
	}
	if sea.PeakMB() > dgl.PeakMB() {
		t.Errorf("seastar APPNP peak %.0fMB should be ≤ dgl %.0fMB", sea.PeakMB(), dgl.PeakMB())
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	cfg := quickConfig()
	cfg.Datasets = []string{"aifb"}
	ms := Table3(cfg)
	if len(ms) != 5 {
		t.Fatalf("cells: %d", len(ms))
	}
	cells := cellsOf(ms)
	sea := cells["rgcn/aifb/seastar/1080Ti"]
	loop := cells["rgcn/aifb/dgl/1080Ti"]
	bmm := cells["rgcn/aifb/dgl-bmm/1080Ti"]
	pygLoop := cells["rgcn/aifb/pyg/1080Ti"]
	pygBMM := cells["rgcn/aifb/pyg-bmm/1080Ti"]
	// Orders of magnitude: Seastar ≪ DGL; bmm variants in between.
	if sea.EpochMs()*20 > loop.EpochMs() {
		t.Errorf("seastar %.2fms vs dgl loop %.2fms: want ≫ 20x", sea.EpochMs(), loop.EpochMs())
	}
	if bmm.EpochMs() > loop.EpochMs()/10 {
		t.Errorf("dgl-bmm %.2fms vs dgl %.2fms: want ≫ 10x", bmm.EpochMs(), loop.EpochMs())
	}
	if pygBMM.EpochMs() > pygLoop.EpochMs() {
		t.Errorf("pyg-bmm %.2f should beat pyg loop %.2f", pygBMM.EpochMs(), pygLoop.EpochMs())
	}
	if sea.EpochMs() > pygBMM.EpochMs() {
		t.Errorf("seastar %.2f should beat pyg-bmm %.2f", sea.EpochMs(), pygBMM.EpochMs())
	}
}

func TestTable4Shape(t *testing.T) {
	t.Parallel()
	cfg := quickConfig()
	cfg.Datasets = []string{"mutag"}
	ms := Table4(cfg)
	cells := cellsOf(ms)
	sea := cells["rgcn/mutag/seastar/2080Ti"]
	pygBMM := cells["rgcn/mutag/pyg-bmm/2080Ti"]
	if sea.Result.Err != nil || pygBMM.Result.Err != nil {
		t.Fatalf("errors: %v %v", sea.Result.Err, pygBMM.Result.Err)
	}
	if sea.PeakMB() > pygBMM.PeakMB() {
		t.Errorf("seastar peak %.1fMB should be ≤ pyg-bmm %.1fMB", sea.PeakMB(), pygBMM.PeakMB())
	}
}

func TestFig12ShapeAndMonotonicity(t *testing.T) {
	t.Parallel()
	cfg := quickConfig()
	pts, err := Fig12(cfg, []int{64, 16, 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(size int, v Fig12Variant) Fig12Point {
		for _, p := range pts {
			if p.FeatureSize == size && p.Variant == v {
				return p
			}
		}
		t.Fatalf("missing point %d/%s", size, v)
		return Fig12Point{}
	}
	for _, size := range []int{64, 16, 1} {
		dyn := get(size, VariantFASortDynamic)
		if dyn.Speedup <= 1 {
			t.Errorf("size %d: full design speedup %.2f should exceed 1", size, dyn.Speedup)
		}
		atomic := get(size, VariantFASortAtomic)
		if dyn.TimeNs > atomic.TimeNs {
			t.Errorf("size %d: dynamic (%.0f) should not lose to atomic (%.0f)",
				size, dyn.TimeNs, atomic.TimeNs)
		}
	}
	// Feature-adaptive grouping matters most at small widths.
	basic1 := get(1, VariantBasic)
	fa1 := get(1, VariantFAUnsorted)
	if fa1.TimeNs >= basic1.TimeNs {
		t.Errorf("size 1: FA (%.0f) should beat Basic (%.0f)", fa1.TimeNs, basic1.TimeNs)
	}
	// Speedup over the baseline grows as features shrink (the paper's
	// headline trend: up to ~946x at the smallest sizes).
	if get(1, VariantFASortDynamic).Speedup <= get(64, VariantFASortDynamic).Speedup {
		t.Error("speedup should grow as the feature size shrinks")
	}
}

func TestWriteOutputs(t *testing.T) {
	t.Parallel()
	var b bytes.Buffer
	WriteTable2(&b)
	if !strings.Contains(b.String(), "reddit") || !strings.Contains(b.String(), "84120742") {
		t.Fatalf("table2 output:\n%s", b.String())
	}

	cfg := quickConfig()
	cfg.Datasets = []string{"cora"}
	cfg.ScaleOverride = func(string) float64 { return 0.05 }
	ms := Fig10(cfg)
	b.Reset()
	FormatMeasurements(&b, ms, false)
	if !strings.Contains(b.String(), "seastar") || !strings.Contains(b.String(), "per-epoch ms") {
		t.Fatalf("fig10 output:\n%s", b.String())
	}
	b.Reset()
	FormatMeasurements(&b, ms, true)
	if !strings.Contains(b.String(), "peak MB") {
		t.Fatal("memory table missing header")
	}

	pts, err := Fig12(cfg, []int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	WriteFig12(&b, pts)
	if !strings.Contains(b.String(), "fa-sort-dynamic") {
		t.Fatalf("fig12 output:\n%s", b.String())
	}
}

func TestMeasureUnknownInputs(t *testing.T) {
	cfg := quickConfig()
	ds := datasets.MustLoad("cora", 0.02, 1)
	m := measure(cfg, "nope", "cora", ds, models.SysSeastar, "1080Ti")
	if m.Result.Err == nil {
		t.Fatal("unknown model accepted")
	}
	m = measure(cfg, "gcn", "cora", ds, models.SysSeastar, "H100")
	if m.Result.Err == nil {
		t.Fatal("unknown gpu accepted")
	}
}

func TestCorrectnessExperiment(t *testing.T) {
	cfg := quickConfig()
	rows, err := Correctness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 3 homo models × 2 systems + rgcn × 4
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxLogitDev > 1e-3 || r.MaxGradDev > 1e-3 {
			t.Errorf("%s/%s deviates: logits %g grads %g",
				r.Model, r.System, r.MaxLogitDev, r.MaxGradDev)
		}
	}
	var b bytes.Buffer
	WriteCorrectness(&b, rows)
	if !strings.Contains(b.String(), "rgcn") {
		t.Fatal("render missing rows")
	}
}

func TestCSVWriters(t *testing.T) {
	ms := []Measurement{
		{Model: "gcn", Dataset: "cora", System: models.SysSeastar, GPU: "V100"},
	}
	var b bytes.Buffer
	WriteCSV(&b, ms)
	if !strings.Contains(b.String(), "model,dataset,system,gpu") ||
		!strings.Contains(b.String(), "gcn,cora,seastar,V100") {
		t.Fatalf("csv:\n%s", b.String())
	}
	b.Reset()
	WriteFig12CSV(&b, []Fig12Point{{GPU: "V100", FeatureSize: 16, Variant: VariantBasic, TimeNs: 10, Speedup: 2}})
	if !strings.Contains(b.String(), "V100,16,basic,10.0,2.000") {
		t.Fatalf("fig12 csv:\n%s", b.String())
	}
}

func TestConfigCacheDirUsed(t *testing.T) {
	cfg := quickConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Datasets = []string{"cora"}
	cfg.Models = []string{"gcn"}
	cfg.Epochs, cfg.Warmup = 1, 0
	if ms := Fig10(cfg); len(ms) != 3 {
		t.Fatalf("cells: %d", len(ms))
	}
	// Second run hits the cache and must agree.
	ms2 := Fig10(cfg)
	if len(ms2) != 3 || ms2[0].Result.Err != nil {
		t.Fatal("cached run failed")
	}
}

func TestTypeRatios(t *testing.T) {
	cfg := quickConfig()
	rs, err := TypeRatios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("ratios: %v", rs)
	}
	for _, r := range rs {
		// Random type assignment keeps the ratio in the paper's regime
		// (well under the compression threshold of 2).
		if r.Ratio < 0.9 || r.Ratio > 3 {
			t.Errorf("%s ratio %v implausible", r.Dataset, r.Ratio)
		}
	}
	var b bytes.Buffer
	WriteTypeRatios(&b, rs)
	if !strings.Contains(b.String(), "aifb") {
		t.Fatal("render")
	}
}
