// Package bench regenerates every table and figure of the paper's
// evaluation (§7): per-epoch training time for GCN/GAT/APPNP across nine
// datasets, three systems and three GPUs (Figure 10); peak memory
// (Figure 11); R-GCN time and memory across five systems (Tables 3 and
// 4); the neighbour-access kernel microbenchmark (Figure 12); and the
// dataset table (Table 2). Results are deterministic simulated
// measurements from the device cost model — simulated device time and
// memory, never wall clock or host RSS; every header and CSV column says
// so. What runs on this host is measured by the repository benchmark
// (benchmark/README.md), not here.
package bench

import (
	"fmt"
	"io"
	"strings"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/models"
	"seastar/internal/train"
)

// Config scopes an experiment run.
type Config struct {
	// Epochs/Warmup per training measurement (simulated time is
	// deterministic, so few epochs suffice).
	Epochs, Warmup int
	// Hidden size for all models (the paper uses DGL defaults; 16 here).
	Hidden int
	// Seed for dataset generation and weight init.
	Seed int64
	// ScaleOverride, if non-nil, overrides datasets.DefaultScale.
	ScaleOverride func(name string) float64
	// GPUs to simulate; defaults to all three.
	GPUs []string
	// Datasets restricts the dataset list (nil = the paper's full set).
	Datasets []string
	// Models restricts the model list (nil = the experiment's full set).
	Models []string
	// CacheDir, when set, caches generated graph structures on disk.
	CacheDir string
}

func (c Config) models(def []string) []string {
	if c.Models != nil {
		return c.Models
	}
	return def
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Epochs: 5, Warmup: 2, Hidden: 16, Seed: 1,
		GPUs: []string{"V100", "2080Ti", "1080Ti"}}
}

func (c Config) scale(name string) float64 {
	if c.ScaleOverride != nil {
		return c.ScaleOverride(name)
	}
	return datasets.DefaultScale(name)
}

// loadDS loads a dataset honouring the cache directory.
func (c Config) loadDS(name string) *datasets.Dataset {
	ds, err := datasets.LoadCached(c.CacheDir, name, c.scale(name), c.Seed)
	if err != nil {
		panic(err)
	}
	return ds
}

func (c Config) trainOptions() train.Options {
	return train.Options{Epochs: c.Epochs, Warmup: c.Warmup, LR: 0.01}
}

// Measurement is one (model, dataset, system, gpu) cell.
type Measurement struct {
	Model   string
	Dataset string
	System  models.System
	GPU     string
	Result  train.Result
}

// EpochMs returns the cell's per-epoch milliseconds (NaN-safe 0 on OOM).
func (m Measurement) EpochMs() float64 { return m.Result.AvgEpochNs / 1e6 }

// PeakMB returns peak memory in MiB.
func (m Measurement) PeakMB() float64 { return float64(m.Result.PeakBytes) / (1 << 20) }

// buildModel instantiates a model by name.
func buildModel(name string, env *models.Env, sys models.System, hidden int) (models.Model, error) {
	switch name {
	case "gcn":
		return models.NewGCN(env, sys, hidden)
	case "gat":
		return models.NewGAT(env, sys, hidden)
	case "appnp":
		return models.NewAPPNP(env, sys, hidden, 10, 0.1)
	case "rgcn":
		return models.NewRGCN(env, sys, hidden)
	default:
		return nil, fmt.Errorf("bench: unknown model %q", name)
	}
}

// measure runs one cell; OOM (at env construction or during training)
// becomes an OOM-marked result, like the paper's "-" entries.
func measure(cfg Config, model, dsName string, ds *datasets.Dataset,
	sys models.System, gpu string) Measurement {

	p, ok := device.ProfileByName(gpu)
	if !ok {
		return Measurement{Model: model, Dataset: dsName, System: sys, GPU: gpu,
			Result: train.Result{Err: fmt.Errorf("unknown gpu %q", gpu), OOM: false}}
	}
	dev := device.NewScaled(p, ds.Scale)
	env, err := models.NewEnvChecked(dev, ds, cfg.Seed)
	if err != nil {
		return Measurement{Model: model, Dataset: dsName, System: sys, GPU: gpu,
			Result: train.Result{Err: err, OOM: true, PeakBytes: dev.PeakBytes()}}
	}
	m, err := buildModel(model, env, sys, cfg.Hidden)
	if err != nil {
		return Measurement{Model: model, Dataset: dsName, System: sys, GPU: gpu,
			Result: train.Result{Err: err}}
	}
	res := train.Run(env, m, cfg.trainOptions())
	return Measurement{Model: model, Dataset: dsName, System: sys, GPU: gpu, Result: res}
}

// Fig10 reproduces Figure 10: per-epoch time of GAT, GCN and APPNP on the
// homogeneous datasets for DGL, PyG and Seastar on each GPU.
func Fig10(cfg Config) []Measurement {
	dss := cfg.Datasets
	if dss == nil {
		dss = datasets.Homogeneous()
	}
	var out []Measurement
	for _, dsName := range dss {
		ds := cfg.loadDS(dsName)
		for _, model := range cfg.models([]string{"gat", "gcn", "appnp"}) {
			for _, gpu := range cfg.GPUs {
				for _, sys := range []models.System{models.SysDGL, models.SysPyG, models.SysSeastar} {
					out = append(out, measure(cfg, model, dsName, ds, sys, gpu))
				}
			}
		}
	}
	return out
}

// Fig11 reproduces Figure 11: peak memory of the three homogeneous models
// on the four large datasets, on an 11 GB device (so the paper's PyG OOM
// on reddit reproduces).
func Fig11(cfg Config) []Measurement {
	dss := cfg.Datasets
	if dss == nil {
		dss = []string{"corafull", "ca_cs", "ca_physics", "reddit"}
	}
	var out []Measurement
	for _, dsName := range dss {
		ds := cfg.loadDS(dsName)
		for _, model := range cfg.models([]string{"gat", "gcn", "appnp"}) {
			for _, sys := range []models.System{models.SysDGL, models.SysPyG, models.SysSeastar} {
				out = append(out, measure(cfg, model, dsName, ds, sys, "2080Ti"))
			}
		}
	}
	return out
}

// RGCNSystems lists the five Table-3/4 systems in paper column order.
func RGCNSystems() []models.System {
	return []models.System{models.SysSeastar, models.SysPyGBMM, models.SysPyG,
		models.SysDGLBMM, models.SysDGL}
}

// Table3 reproduces Table 3: R-GCN per-epoch time on the heterogeneous
// datasets across the five systems and three GPUs.
func Table3(cfg Config) []Measurement {
	dss := cfg.Datasets
	if dss == nil {
		dss = datasets.Heterogeneous()
	}
	var out []Measurement
	for _, dsName := range dss {
		ds := cfg.loadDS(dsName)
		for _, gpu := range cfg.GPUs {
			for _, sys := range RGCNSystems() {
				out = append(out, measure(cfg, "rgcn", dsName, ds, sys, gpu))
			}
		}
	}
	return out
}

// Table4 reproduces Table 4: R-GCN peak memory per system (11 GB device).
func Table4(cfg Config) []Measurement {
	dss := cfg.Datasets
	if dss == nil {
		dss = datasets.Heterogeneous()
	}
	var out []Measurement
	for _, dsName := range dss {
		ds := cfg.loadDS(dsName)
		for _, sys := range RGCNSystems() {
			out = append(out, measure(cfg, "rgcn", dsName, ds, sys, "2080Ti"))
		}
	}
	return out
}

// WriteTable2 prints the dataset table.
func WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "%-12s %12s %12s %9s %10s\n", "Dataset", "#vertices", "#edges", "#feature", "#relation")
	for _, name := range datasets.Names() {
		n, m, f, r, _ := datasets.Stats(name)
		fmt.Fprintf(w, "%-12s %12d %12d %9d %10d\n", name, n, m, f, r)
	}
}

// WriteCSV emits measurements as CSV (one row per cell) for external
// plotting: model,dataset,system,gpu,simulated_epoch_ms,simulated_peak_mb,status.
func WriteCSV(w io.Writer, ms []Measurement) {
	fmt.Fprintln(w, "model,dataset,system,gpu,simulated_epoch_ms,simulated_peak_mb,status")
	for _, m := range ms {
		status := "ok"
		if m.Result.OOM {
			status = "oom"
		} else if m.Result.Err != nil {
			status = "error"
		}
		fmt.Fprintf(w, "%s,%s,%s,%s,%.4f,%.2f,%s\n",
			m.Model, m.Dataset, m.System, m.GPU, m.EpochMs(), m.PeakMB(), status)
	}
}

// WriteFig12CSV emits the microbenchmark points as CSV.
func WriteFig12CSV(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "gpu,feature_size,variant,simulated_time_ns,speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%s,%d,%s,%.1f,%.3f\n", p.GPU, p.FeatureSize, p.Variant, p.TimeNs, p.Speedup)
	}
}

// FormatMeasurements renders measurements grouped by (model, gpu) with
// systems as columns — the layout of the paper's figures.
func FormatMeasurements(w io.Writer, ms []Measurement, memory bool) {
	type key struct {
		model, gpu string
	}
	groups := map[key][]Measurement{}
	var order []key
	for _, m := range ms {
		k := key{m.Model, m.GPU}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}
	for _, k := range order {
		unit := "simulated per-epoch ms"
		if memory {
			unit = "simulated peak MB"
		}
		fmt.Fprintf(w, "\n== %s on %s (%s) ==\n", strings.ToUpper(k.model), k.gpu, unit)
		// Collect systems and datasets preserving order.
		var systems []models.System
		var dss []string
		seenSys := map[models.System]bool{}
		seenDS := map[string]bool{}
		for _, m := range groups[k] {
			if !seenSys[m.System] {
				seenSys[m.System] = true
				systems = append(systems, m.System)
			}
			if !seenDS[m.Dataset] {
				seenDS[m.Dataset] = true
				dss = append(dss, m.Dataset)
			}
		}
		fmt.Fprintf(w, "%-12s", "dataset")
		for _, s := range systems {
			fmt.Fprintf(w, " %12s", s)
		}
		fmt.Fprintln(w)
		cell := map[string]map[models.System]Measurement{}
		for _, m := range groups[k] {
			if cell[m.Dataset] == nil {
				cell[m.Dataset] = map[models.System]Measurement{}
			}
			cell[m.Dataset][m.System] = m
		}
		for _, d := range dss {
			fmt.Fprintf(w, "%-12s", d)
			for _, s := range systems {
				m := cell[d][s]
				switch {
				case m.Result.OOM:
					fmt.Fprintf(w, " %12s", "OOM")
				case m.Result.Err != nil:
					fmt.Fprintf(w, " %12s", "ERR")
				case memory:
					fmt.Fprintf(w, " %12.1f", m.PeakMB())
				default:
					fmt.Fprintf(w, " %12.2f", m.EpochMs())
				}
			}
			fmt.Fprintln(w)
		}
	}
}
