// Command seastar-bench regenerates the paper's evaluation tables and
// figures (§7) on the simulated GPU. Every time and memory figure it
// prints is simulated device time or memory from the cost model, not
// wall clock; what a user waits for on this host is measured by the
// repository benchmark (bash benchmark/run.sh, see benchmark/README.md).
//
//	seastar-bench -exp table2              # dataset table
//	seastar-bench -exp fig10               # per-epoch time, 3 models × 9 datasets
//	seastar-bench -exp fig11               # peak memory
//	seastar-bench -exp table3 -exp table4  # R-GCN time and memory
//	seastar-bench -exp fig12               # kernel microbenchmark
//	seastar-bench -exp all
//
// Large graphs are generated at datasets.DefaultScale and extrapolated;
// use -scale to multiply every default (e.g. -scale 0.25 for a quick
// pass, -scale 1 to attempt full instantiation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"seastar/internal/bench"
	"seastar/internal/datasets"
)

// experiments lists the valid -exp names in the order they run.
var experiments = []string{"table2", "fig10", "fig11", "table3", "table4", "correctness", "fig12"}

// removed maps the -exp names deleted with the second evidence system to
// the benchmark workload that measures the same thing end to end.
var removed = map[string]string{
	"kernels":  "--workload train-full-gat (kernels.* per-layer metrics)",
	"fused":    "--workload train-full-gat (kernels.specialized_units, kernels.fwd_busy_ms, kernels.bwd_busy_ms)",
	"gemm":     "--workload train-full-gcn (tensor.gemm_gflops, exec.dense_ms)",
	"pipeline": "--workload train-mb-sage (pipeline.* per-layer metrics)",
	"serve":    "--workload serve-sampled",
	"delta":    "--workload serve-embed-mixed (delta_ms_p50)",
	"shard":    "--workload serve-shard2",
	"obs":      "--workload all --trace 1 (obs.trace_overhead_ratio)",
	"oocore":   "--workload train-mb-sage (the in-memory epoch; no workload runs the store-backed epoch yet)",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// process exit code (2 for a usage error, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seastar-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var exps multiFlag
	fs.Var(&exps, "exp", "experiment to run: "+strings.Join(experiments, "|")+"|all (repeatable)")
	gpus := fs.String("gpus", "V100,2080Ti,1080Ti", "comma-separated simulated GPUs")
	dss := fs.String("datasets", "", "comma-separated dataset subset (default: the experiment's full set)")
	mdls := fs.String("models", "", "comma-separated model subset for fig10/fig11")
	epochs := fs.Int("epochs", 5, "epochs per measurement")
	warmup := fs.Int("warmup", 2, "warm-up epochs discarded from the average")
	hidden := fs.Int("hidden", 16, "hidden size")
	seed := fs.Int64("seed", 1, "dataset and weight seed")
	scale := fs.Float64("scale", 1, "multiplier on each dataset's default instantiation scale")
	csv := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	cacheDir := fs.String("cachedir", "", "directory for cached graph structures (speeds up repeated runs)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path (inspect with go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(exps) == 0 {
		exps = multiFlag{"all"}
	}
	want := map[string]bool{}
	for _, e := range exps {
		if e == "all" {
			for _, name := range experiments {
				want[name] = true
			}
			continue
		}
		if !slices.Contains(experiments, e) {
			fmt.Fprintf(stderr, "seastar-bench: unknown experiment %q (valid: %s, all)\n", e, strings.Join(experiments, ", "))
			if w, ok := removed[e]; ok {
				fmt.Fprintf(stderr, "  -exp %s was removed; the repository benchmark measures it: bash benchmark/run.sh %s\n", e, w)
			}
			return 2
		}
		want[e] = true
	}

	// Profiles flush on return, error paths included.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stdout, "wrote CPU profile %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote heap profile %s\n", *memprofile)
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Epochs, cfg.Warmup, cfg.Hidden, cfg.Seed = *epochs, *warmup, *hidden, *seed
	cfg.GPUs = split(*gpus)
	cfg.CacheDir = *cacheDir
	if *dss != "" {
		cfg.Datasets = split(*dss)
	}
	if *mdls != "" {
		cfg.Models = split(*mdls)
	}
	if *scale != 1 {
		mult := *scale
		cfg.ScaleOverride = func(name string) float64 {
			s := datasets.DefaultScale(name) * mult
			if s > 1 {
				s = 1
			}
			return s
		}
	}

	emit := func(title string, ms []bench.Measurement, memory bool) {
		if *csv {
			bench.WriteCSV(stdout, ms)
			return
		}
		fmt.Fprintln(stdout, "\n"+title)
		bench.FormatMeasurements(stdout, ms, memory)
	}
	for _, name := range experiments {
		if !want[name] {
			continue
		}
		switch name {
		case "table2":
			fmt.Fprintln(stdout, "=== Table 2: datasets (full-size statistics; the simulated runs instantiate them at default scale × -scale) ===")
			bench.WriteTable2(stdout)
			if rs, err := bench.TypeRatios(cfg); err == nil {
				fmt.Fprintln(stdout, "\n=== §6.3.5 edge-type storage analysis ===")
				bench.WriteTypeRatios(stdout, rs)
			}
		case "fig10":
			emit("=== Figure 10: per-epoch training time (simulated device time, not wall clock) ===", bench.Fig10(cfg), false)
		case "fig11":
			emit("=== Figure 11: peak memory (simulated 11 GB device, not host RSS) ===", bench.Fig11(cfg), true)
		case "table3":
			emit("=== Table 3: R-GCN per-epoch time (simulated device time, not wall clock) ===", bench.Table3(cfg), false)
		case "table4":
			emit("=== Table 4: R-GCN peak memory (simulated 11 GB device, not host RSS) ===", bench.Table4(cfg), true)
		case "correctness":
			rows, err := bench.Correctness(cfg)
			if err != nil {
				fmt.Fprintln(stderr, "correctness:", err)
				return 1
			}
			fmt.Fprintln(stdout, "\n=== Correctness: baseline deviation from Seastar ===")
			bench.WriteCorrectness(stdout, rows)
		case "fig12":
			pts, err := bench.Fig12(cfg, nil)
			if err != nil {
				fmt.Fprintln(stderr, "fig12:", err)
				return 1
			}
			if *csv {
				bench.WriteFig12CSV(stdout, pts)
			} else {
				fmt.Fprintln(stdout, "\n=== Figure 12: neighbour-access microbenchmark (simulated device time, not wall clock) ===")
				bench.WriteFig12(stdout, pts)
			}
		}
	}
	return 0
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
