package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// analyzeOptions parameterize one EXPLAIN ANALYZE run.
type analyzeOptions struct {
	Model   string
	Params  modelParams
	Dataset string // "" → synthetic Zipf graph
	N       int    // synthetic vertex count
	Deg     int    // synthetic average degree
	Iters   int    // measured forward+backward iterations
	Seed    int64
	GPU     string
}

// UnitProfile is the measured attribution of one execution unit, or of
// one part of the harness around the program (Pass "harness").
type UnitProfile struct {
	Pass     string           `json:"pass"` // "fwd", "bwd" or "harness"
	Label    string           `json:"label"`
	Kind     string           `json:"kind"`
	Count    int64            `json:"count"`
	TotalNs  int64            `json:"total_ns"`
	NsPerIt  int64            `json:"ns_per_iter"`
	Fraction float64          `json:"fraction"` // of measured wall time
	Allocs   int64            `json:"allocs_per_iter"`
	Counters map[string]int64 `json:"counters,omitempty"` // rows/edges/specialized from the kernel layer
}

// Report is the full EXPLAIN ANALYZE result, also emitted as -json.
type Report struct {
	Model      string           `json:"model"`
	Dataset    string           `json:"dataset"`
	N          int              `json:"n"`
	M          int              `json:"m"`
	Iters      int              `json:"iters"`
	WallNs     int64            `json:"wall_ns"`
	UnitsNs    int64            `json:"units_ns"`
	Coverage   float64          `json:"coverage"` // UnitsNs / WallNs
	CompileNs  map[string]int64 `json:"compile_ns"`
	Units      []UnitProfile    `json:"units"`
	PoolHits   int64            `json:"pool_hits"`
	PoolMisses int64            `json:"pool_misses"`
}

// runAnalyze compiles the model, executes Iters training iterations
// (forward + backward) under span tracing, and attributes the measured
// wall time to execution units. A second single-iteration pass with
// allocation tracking fills in per-unit allocs without perturbing the
// timing run.
func runAnalyze(opts analyzeOptions) (*Report, error) {
	if opts.Iters <= 0 {
		opts.Iters = 5
	}
	if opts.N <= 0 {
		opts.N = 30000
	}
	if opts.Deg <= 0 {
		opts.Deg = 8
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// The graph: synthetic degree-sorted Zipf, or a named dataset's
	// topology (features are synthesized either way — the built-in
	// models' feature keys are not dataset columns).
	var g *graph.Graph
	dsName := "synthetic-zipf"
	if opts.Dataset != "" {
		ds, err := datasets.Load(opts.Dataset, datasets.DefaultScale(opts.Dataset), opts.Seed)
		if err != nil {
			return nil, err
		}
		g = ds.G.SortByDegree()
		dsName = opts.Dataset
	} else {
		g = graph.ZipfDegree(rng, opts.N, opts.Deg, 2.0).SortByDegree()
	}
	if opts.Model == "rgcn" && g.EdgeTypes == nil {
		graph.RandomEdgeTypes(rng, g, opts.Params.relations)
	}

	prof, ok := device.ProfileByName(opts.GPU)
	if !ok {
		return nil, fmt.Errorf("unknown GPU %q", opts.GPU)
	}

	wasEnabled := obs.Enabled()
	obs.Enable()
	defer func() {
		if !wasEnabled {
			obs.Disable()
		}
		obs.DisableAllocTracking()
	}()
	obs.Reset()

	dag, err := buildModel(opts.Model, opts.Params)
	if err != nil {
		return nil, err
	}
	c, err := exec.Compile(dag)
	if err != nil {
		return nil, err
	}
	compileNs := map[string]int64{}
	for _, e := range obs.Snapshot() {
		if e.Cat == "compile" {
			compileNs[e.Name] = e.TotalNs
		}
	}

	eng := nn.NewEngine(device.New(prof))
	rt := exec.NewRuntime(eng, g)

	// Every input is a trainable Param so the backward pass runs every
	// gradient unit (requires-grad pruning would otherwise skip
	// feature gradients — a profile should see the whole program).
	vfeat := map[string]*nn.Variable{}
	efeat := map[string]*nn.Variable{}
	params := map[string]*nn.Variable{}
	for _, spec := range c.Inputs {
		v := eng.Param(inputTensor(rng, g, c.Fwd.DAG, spec), spec.Key)
		switch spec.Kind {
		case exec.InVFeat:
			vfeat[spec.Key] = v
		case exec.InEFeat:
			efeat[spec.Key] = v
		default:
			params[spec.Key] = v
		}
	}
	step := func() error {
		out, err := c.Apply(rt, vfeat, efeat, params)
		if err != nil {
			return err
		}
		// The harness is inside the measured wall, so it is spanned too:
		// the SumAll loss, and the autograd sweep that encloses the
		// backward units.
		sp := obs.Begin("harness", "loss")
		loss := eng.SumAll(out)
		sp.End()
		sp = obs.Begin("harness", "backward")
		eng.Backward(loss)
		sp.End()
		eng.EndIteration()
		return nil
	}

	// Warm-up: first iteration pays pool misses and lazy init.
	if err := step(); err != nil {
		return nil, err
	}

	// Phase A: clean timing run.
	obs.Reset()
	wallStart := time.Now()
	for i := 0; i < opts.Iters; i++ {
		if err := step(); err != nil {
			return nil, err
		}
	}
	wallNs := time.Since(wallStart).Nanoseconds()
	timing := snapshotByName()

	// Phase B: one iteration with allocation tracking for per-unit
	// allocs (runtime/metrics reads at span edges would skew Phase A).
	obs.Reset()
	obs.EnableAllocTracking()
	if err := step(); err != nil {
		return nil, err
	}
	obs.DisableAllocTracking()
	allocs := snapshotByName()

	rep := &Report{
		Model: opts.Model, Dataset: dsName, N: g.N, M: g.M,
		Iters: opts.Iters, WallNs: wallNs, CompileNs: compileNs,
	}
	pool := eng.PoolStats()
	rep.PoolHits, rep.PoolMisses = pool.Hits, pool.Misses

	addUnits := func(pass string, p *exec.Pass) {
		for i, label := range p.Labels() {
			e, ok := timing["exec\x00"+label]
			if !ok {
				continue // pruned unit: never ran
			}
			up := UnitProfile{
				Pass: pass, Label: label, Kind: p.Plan.Units[i].Kind.String(),
				Count: e.Count, TotalNs: e.TotalNs,
				NsPerIt:  e.TotalNs / int64(opts.Iters),
				Fraction: float64(e.TotalNs) / float64(wallNs),
			}
			if a, ok := allocs["exec\x00"+label]; ok {
				up.Allocs = a.Counters["allocs"]
			}
			if k, ok := timing["kern\x00"+label]; ok && len(k.Counters) > 0 {
				up.Counters = map[string]int64{}
				for name, v := range k.Counters {
					if name == "rows" || name == "edges" {
						v /= e.Count // per launch
					}
					up.Counters[name] = v
				}
			}
			rep.UnitsNs += e.TotalNs
			rep.Units = append(rep.Units, up)
		}
	}
	addUnits("fwd", c.Fwd)
	if c.Bwd != nil {
		addUnits("bwd", c.Bwd)
	}
	// Harness rows: the loss, and the autograd sweep's own time and
	// allocations — what eng.Backward spends outside the backward units it
	// encloses (seeding dOut, the gradient hand-off copy, accumulating
	// into every input).
	var bwdNs, bwdAllocs int64
	for _, u := range rep.Units {
		if u.Pass == "bwd" {
			bwdNs += u.TotalNs
			bwdAllocs += u.Allocs
		}
	}
	loss, sweep := timing["harness\x00loss"], timing["harness\x00backward"]
	for _, h := range []struct {
		label      string
		count      int64
		ns, allocs int64
	}{
		{"loss (SumAll)", loss.Count, loss.TotalNs,
			allocs["harness\x00loss"].Counters["allocs"]},
		{"autograd (seed + hand-off)", sweep.Count, sweep.TotalNs - bwdNs,
			allocs["harness\x00backward"].Counters["allocs"] - bwdAllocs},
	} {
		rep.UnitsNs += h.ns
		rep.Units = append(rep.Units, UnitProfile{
			Pass: "harness", Label: h.label, Kind: "harness",
			Count: h.count, TotalNs: h.ns,
			NsPerIt:  h.ns / int64(opts.Iters),
			Fraction: float64(h.ns) / float64(wallNs),
			Allocs:   h.allocs,
		})
	}
	if wallNs > 0 {
		rep.Coverage = float64(rep.UnitsNs) / float64(wallNs)
	}
	return rep, nil
}

// snapshotByName indexes the obs registry by its cat+NUL+name key.
func snapshotByName() map[string]obs.Entry {
	out := map[string]obs.Entry{}
	for _, e := range obs.Snapshot() {
		out[e.Cat+"\x00"+e.Name] = e
	}
	return out
}

// inputTensor synthesizes a random tensor for one compiled input: [N,d]
// for vertex features, [M,d] for edge features, the parameter's own
// shape otherwise. Values are small positives so divisions (edge
// softmax) and exponentials stay benign.
func inputTensor(rng *rand.Rand, g *graph.Graph, dag *gir.DAG, spec exec.InputSpec) *tensor.Tensor {
	var leaf *gir.Node
	for _, n := range dag.Leaves() {
		if n.Key == spec.Key && leafKindMatches(n.LeafKind, spec.Kind) {
			leaf = n
			break
		}
	}
	if leaf == nil {
		panic(fmt.Sprintf("no leaf for input %v", spec))
	}
	shape := leaf.Shape
	switch spec.Kind {
	case exec.InVFeat:
		shape = append([]int{g.N}, shape...)
	case exec.InEFeat:
		shape = append([]int{g.M}, shape...)
	}
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32()*0.5 + 0.25
	}
	return t
}

func leafKindMatches(lk gir.LeafKind, ik exec.InputKind) bool {
	switch ik {
	case exec.InVFeat:
		return lk == gir.LeafSrcFeat || lk == gir.LeafDstFeat
	case exec.InEFeat:
		return lk == gir.LeafEdgeFeat
	default:
		return lk == gir.LeafParam
	}
}

// writeAnalyze renders the report as text, units sorted by time within
// each pass.
func writeAnalyze(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "=== EXPLAIN ANALYZE: %s on %s (n=%d, m=%d, iters=%d) ===\n",
		rep.Model, rep.Dataset, rep.N, rep.M, rep.Iters)
	if total, ok := rep.CompileNs["total"]; ok {
		fmt.Fprintf(w, "compile: %s", fmtDur(total))
		var phases []string
		for _, ph := range []string{"optimize", "autodiff", "partition", "materialize", "kernelgen"} {
			if ns, ok := rep.CompileNs[ph]; ok {
				phases = append(phases, fmt.Sprintf("%s %s", ph, fmtDur(ns)))
			}
		}
		if len(phases) > 0 {
			fmt.Fprintf(w, " (%s)", join(phases))
		}
		fmt.Fprintln(w)
	}
	for _, pass := range []string{"fwd", "bwd", "harness"} {
		var units []UnitProfile
		for _, u := range rep.Units {
			if u.Pass == pass {
				units = append(units, u)
			}
		}
		if len(units) == 0 {
			continue
		}
		sort.SliceStable(units, func(i, j int) bool { return units[i].TotalNs > units[j].TotalNs })
		fmt.Fprintf(w, "\n%s by time:\n", passName(pass))
		for _, u := range units {
			fmt.Fprintf(w, "  %-28s %6.1f%%  %10s/iter  allocs/iter %-5d",
				u.Label, u.Fraction*100, fmtDur(u.NsPerIt), u.Allocs)
			if len(u.Counters) > 0 {
				keys := make([]string, 0, len(u.Counters))
				for k := range u.Counters {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, " %s=%d", k, u.Counters[k])
				}
			}
			fmt.Fprintln(w)
		}
	}
	units, harness := 0, ""
	for _, u := range rep.Units {
		if u.Pass == "harness" {
			harness = " and the harness"
		} else {
			units++
		}
	}
	fmt.Fprintf(w, "\nattribution: %.1f%% of wall %s attributed to %d execution units%s\n",
		rep.Coverage*100, fmtDur(rep.WallNs), units, harness)
	fmt.Fprintf(w, "pool: hits=%d misses=%d\n", rep.PoolHits, rep.PoolMisses)
}

func passName(p string) string {
	switch p {
	case "fwd":
		return "forward units"
	case "bwd":
		return "backward units"
	}
	return p
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
