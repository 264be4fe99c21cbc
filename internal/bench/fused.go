package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"seastar/internal/autodiff"
	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/refinterp"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// FusedConfig scopes the closure-compiler A/B benchmark: the three
// canonical specialized edge-loop patterns (GAT edge softmax + weighted
// aggregate, GCN scaled gather, R-GCN typed transform-aggregate) and the
// backward plans of the first two (gat-bwd, gcn-bwd) run interpreted and
// specialized at each worker count, with a bitwise equality check between
// the two paths on every pattern.
type FusedConfig struct {
	// Vertices, AvgDegree and Alpha size the Zipf benchmark graph.
	Vertices, AvgDegree int
	Alpha               float64
	// Hidden is the wide feature width; Rels the R-GCN relation count.
	Hidden, Rels int
	// MaxProcsList is the worker counts to measure at (sched.SetMaxProcs);
	// measured wall time only improves with procs when the host has the
	// cores to back them.
	MaxProcsList []int
	Seed         int64
}

// DefaultFusedConfig matches the acceptance setup: the kernels-bench
// Zipf graph at 1 and 4 workers.
func DefaultFusedConfig() FusedConfig {
	return FusedConfig{Vertices: 100000, AvgDegree: 8, Alpha: 1.0,
		Hidden: 16, Rels: 3, MaxProcsList: []int{1, 4}, Seed: 1}
}

// FusedRow is one fused kernel × worker-count measurement. A pattern
// that partitions into several seastar units (GAT's edge softmax splits
// into a scalar-normalizer kernel and the weighted-aggregate kernel)
// yields one row per unit, so the report scores each compiled edge loop
// against its own interpreted run rather than hiding a strong kernel
// behind a weak one in a whole-pattern average.
type FusedRow struct {
	Pattern string `json:"pattern"`
	// Unit is the fused unit's index within the pattern's plan.
	Unit int `json:"unit"`
	// Spec is the specializer's matched plan name for this unit.
	Spec     string `json:"spec"`
	MaxProcs int    `json:"max_procs"`
	// InterpNsPerOp runs the same kernels with Config.NoSpecialize.
	InterpNsPerOp int64   `json:"interp_ns_per_op"`
	SpecNsPerOp   int64   `json:"spec_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	// BitwiseEqual is the hard gate: specialized and interpreted outputs
	// compared bit for bit before timing.
	BitwiseEqual bool `json:"bitwise_equal"`
}

// FusedReport is the full BENCH_fused.json payload.
type FusedReport struct {
	Experiment string           `json:"experiment"`
	SIMD       bool             `json:"simd"`
	GemmKernel string           `json:"gemm_kernel"`
	Graph      KernelsGraphInfo `json:"graph"`
	Rows       []FusedRow       `json:"rows"`
}

// fusedPattern builds one benchmark workload: a Zipf graph (typed for
// R-GCN) and a pure-seastar GIR whose fused units the closure compiler
// must match. A backward pattern measures the units of the program's
// autodiff instead (see backwardOf).
type fusedPattern struct {
	name     string
	build    fusedBuild
	backward bool
}

type fusedBuild func(cfg FusedConfig, rng *rand.Rand) (*graph.Graph, *gir.DAG, *kernels.Bindings, error)

func fusedPatterns() []fusedPattern {
	return []fusedPattern{
		{name: "gat", build: fusedGAT},
		{name: "gcn", build: fusedGCN},
		{name: "rgcn", build: fusedRGCN},
		{name: "gat-bwd", build: fusedGAT, backward: true},
		{name: "gcn-bwd", build: fusedGCN, backward: true},
	}
}

// backwardOf turns a forward pattern into its backward plan: the autodiff
// of the optimized forward program, with a random seed gradient and the
// forward values it saves — evaluated once by the definitional
// interpreter — bound in bind.
func backwardOf(g *graph.Graph, dag *gir.DAG, bind *kernels.Bindings, rng *rand.Rand) (*gir.DAG, error) {
	fwd := fusion.Optimize(dag)
	grads, err := autodiff.Backward(fwd)
	if err != nil {
		return nil, err
	}
	saved, err := refinterp.Eval(fwd, g, &refinterp.Bindings{
		VFeat: bind.VFeat, EFeat: bind.EFeat, Params: bind.Params,
	})
	if err != nil {
		return nil, err
	}
	bind.Saved = saved
	bind.Grad = tensor.Randn(rng, 1, g.N, fwd.Outputs[0].Dim())
	return grads.DAG, nil
}

func fusedGAT(cfg FusedConfig, rng *rand.Rand) (*graph.Graph, *gir.DAG, *kernels.Bindings, error) {
	g := graph.ZipfDegree(rng, cfg.Vertices, cfg.AvgDegree, cfg.Alpha).SortByDegree()
	b := gir.NewBuilder()
	b.VFeature("eu", 1)
	b.VFeature("ev", 1)
	b.VFeature("h", cfg.Hidden)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
		a := e.Div(e.AggSum())
		return a.Mul(v.Nbr("h")).AggSum()
	})
	bind := &kernels.Bindings{VFeat: map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 1, g.N, 1),
		"ev": tensor.Randn(rng, 1, g.N, 1),
		"h":  tensor.Randn(rng, 1, g.N, cfg.Hidden),
	}}
	return g, dag, bind, err
}

// fusedGCN is the GCN seastar unit after the dense transform: gather the
// transformed neighbour row, scale by the symmetric norm, sum.
func fusedGCN(cfg FusedConfig, rng *rand.Rand) (*graph.Graph, *gir.DAG, *kernels.Bindings, error) {
	g := graph.ZipfDegree(rng, cfg.Vertices, cfg.AvgDegree, cfg.Alpha).SortByDegree()
	b := gir.NewBuilder()
	b.VFeature("x", cfg.Hidden)
	b.VFeature("norm", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("x").Mul(v.Nbr("norm")).AggSum()
	})
	bind := &kernels.Bindings{VFeat: map[string]*tensor.Tensor{
		"x":    tensor.Randn(rng, 1, g.N, cfg.Hidden),
		"norm": tensor.Uniform(rng, 0.2, 1, g.N, 1),
	}}
	return g, dag, bind, err
}

func fusedRGCN(cfg FusedConfig, rng *rand.Rand) (*graph.Graph, *gir.DAG, *kernels.Bindings, error) {
	g := graph.ZipfDegree(rng, cfg.Vertices, cfg.AvgDegree, cfg.Alpha)
	graph.RandomEdgeTypes(rng, g, cfg.Rels)
	if err := g.SortEdgesByType(); err != nil {
		return nil, nil, nil, err
	}
	g = g.SortByDegree()
	b := gir.NewBuilder()
	b.VFeature("h", cfg.Hidden)
	b.EFeature("norm", 1)
	Ws := b.Param("W", cfg.Rels, cfg.Hidden, cfg.Hidden)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
	})
	bind := &kernels.Bindings{
		VFeat:  map[string]*tensor.Tensor{"h": tensor.Randn(rng, 1, g.N, cfg.Hidden)},
		EFeat:  map[string]*tensor.Tensor{"norm": tensor.Uniform(rng, 0.2, 1, g.M, 1)},
		Params: map[string]*tensor.Tensor{"W": tensor.Randn(rng, 1, cfg.Rels, cfg.Hidden, cfg.Hidden)},
	}
	return g, dag, bind, err
}

// compileSeastarUnits partitions dag and compiles every unit; the whole
// plan must be seastar units (the patterns above are built that way) so
// the measurement covers only the fused edge loops.
func compileSeastarUnits(g *graph.Graph, dag *gir.DAG, bind *kernels.Bindings) ([]kernelsRun, error) {
	dag = fusion.Optimize(dag)
	plan, err := fusion.Partition(dag)
	if err != nil {
		return nil, err
	}
	if bind.Inter == nil {
		bind.Inter = make(map[*gir.Node]*tensor.Tensor)
	}
	mat := plan.Materialized(nil)
	avail := map[*gir.Node]bool{}
	for _, ns := range mat {
		for _, n := range ns {
			avail[n] = true
		}
	}
	var runs []kernelsRun
	for _, u := range plan.Units {
		if u.Kind != fusion.KindSeastar {
			return nil, fmt.Errorf("bench: unexpected %s unit in fused pattern", u.Kind)
		}
		k, err := kernels.Compile(u, mat[u], avail)
		if err != nil {
			return nil, err
		}
		outs := make(map[*gir.Node]*tensor.Tensor, len(mat[u]))
		for _, m := range mat[u] {
			rows := g.N
			if m.Type == gir.TypeE {
				rows = g.M
			}
			t := tensor.New(rows, m.Dim())
			outs[m] = t
			bind.Inter[m] = t
		}
		runs = append(runs, kernelsRun{k: k, outs: outs})
	}
	return runs, nil
}

// specNames collects the matched plan name of each compiled unit; an
// unspecialized unit is an error — the benchmark exists to measure the
// closure compiler, so a silent fallback would compare the interpreter
// against itself.
func specNames(runs []kernelsRun) ([]string, error) {
	var names []string
	for _, r := range runs {
		ok, name := r.k.Specialized()
		if !ok {
			return nil, fmt.Errorf("bench: unit %d fell back to the interpreter: %s", r.k.Unit.ID, name)
		}
		names = append(names, name)
	}
	return names, nil
}

// fusedBitwiseEqual runs the plan once interpreted and once specialized
// and compares every materialized output bit for bit (NaN-forgiving).
func fusedBitwiseEqual(g *graph.Graph, runs []kernelsRun, bind *kernels.Bindings) (bool, error) {
	dev := device.New(device.V100)
	interp := kernels.Config{NoSpecialize: true}
	want := make(map[*gir.Node][]float32)
	for _, r := range runs {
		if err := r.k.Run(dev, g, interp, bind, r.outs); err != nil {
			return false, err
		}
		for n, t := range r.outs {
			want[n] = append([]float32(nil), t.Data()...)
		}
	}
	for _, r := range runs {
		if err := r.k.Run(dev, g, kernels.Config{}, bind, r.outs); err != nil {
			return false, err
		}
		for n, t := range r.outs {
			w := want[n]
			for i, got := range t.Data() {
				if math.Float32bits(got) != math.Float32bits(w[i]) &&
					!(math.IsNaN(float64(got)) && math.IsNaN(float64(w[i]))) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// FusedBench runs the closure-compiler benchmark and returns the report.
func FusedBench(cfg FusedConfig) (*FusedReport, error) {
	rep := &FusedReport{
		Experiment: "fused",
		SIMD:       tensor.SIMDEnabled(),
		GemmKernel: tensor.GemmKernelName(),
		Graph: KernelsGraphInfo{
			Kind: "zipf", Vertices: cfg.Vertices,
			AvgDegree: cfg.AvgDegree, Alpha: cfg.Alpha, DegreeSorted: true,
		},
	}
	procsList := cfg.MaxProcsList
	if len(procsList) == 0 {
		procsList = []int{1}
	}
	for _, pat := range fusedPatterns() {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g, dag, bind, err := pat.build(cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", pat.name, err)
		}
		if pat.backward {
			if dag, err = backwardOf(g, dag, bind, rng); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", pat.name, err)
			}
		}
		rep.Graph.Edges = g.M
		runs, err := compileSeastarUnits(g, dag, bind)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", pat.name, err)
		}
		spec, err := specNames(runs)
		if err != nil {
			return nil, err
		}
		eq, err := fusedBitwiseEqual(g, runs, bind)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", pat.name, err)
		}
		// The bitwise pass above also populated every unit's inputs
		// (bind.Inter), so each unit can be timed on its own: unit u
		// re-reads the outputs its predecessors left behind.
		for ui := range runs {
			unit := runs[ui : ui+1]
			for _, procs := range procsList {
				prev := sched.SetMaxProcs(procs)
				interpRes, err := measureKernel(g, unit, bind, kernels.Config{NoSpecialize: true})
				if err == nil {
					var specRes = interpRes
					specRes, err = measureKernel(g, unit, bind, kernels.Config{})
					if err == nil {
						rep.Rows = append(rep.Rows, FusedRow{
							Pattern:       pat.name,
							Unit:          ui,
							Spec:          spec[ui],
							MaxProcs:      procs,
							InterpNsPerOp: interpRes.NsPerOp(),
							SpecNsPerOp:   specRes.NsPerOp(),
							Speedup:       float64(interpRes.NsPerOp()) / float64(specRes.NsPerOp()),
							BitwiseEqual:  eq,
						})
					}
				}
				sched.SetMaxProcs(prev)
				if err != nil {
					return nil, fmt.Errorf("bench: %s unit %d @%d procs: %w", pat.name, ui, procs, err)
				}
			}
		}
	}
	return rep, nil
}

// WriteFusedJSON serializes the report for BENCH_fused.json.
func WriteFusedJSON(w io.Writer, rep *FusedReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFusedText renders the report for terminals.
func WriteFusedText(w io.Writer, rep *FusedReport) {
	fmt.Fprintf(w, "graph: %s n=%d m=%d alpha=%.2f; simd=%v (%s)\n\n",
		rep.Graph.Kind, rep.Graph.Vertices, rep.Graph.Edges, rep.Graph.Alpha,
		rep.SIMD, rep.GemmKernel)
	fmt.Fprintf(w, "%-8s %4s %6s %14s %14s %8s %8s  %s\n",
		"model", "unit", "procs", "interp ns/op", "spec ns/op", "speedup", "bitwise", "kernel")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-8s %4d %6d %14d %14d %7.2fx %8v  %s\n",
			r.Pattern, r.Unit, r.MaxProcs, r.InterpNsPerOp, r.SpecNsPerOp, r.Speedup,
			r.BitwiseEqual, r.Spec)
	}
}
