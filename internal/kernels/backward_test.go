// Bitwise tests for the backward units on the columnar VM: dead-step
// pruning, EdgeView aliasing, the dot production and opSteps must leave
// every materialized value of every GAT/GCN/R-GCN/APPNP backward unit
// identical to the definitional refinterp oracle, with SIMD on or off and
// at 1 and 2 workers.
package kernels_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/obs"
	"seastar/internal/program"
	"seastar/internal/refinterp"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// ladderGraph builds a skewed graph whose in-degrees (vertices 0..) and
// out-degrees (the next block of vertices) each hit 0, 1, every remainder
// of the dot kernel's lockstep widths (4 portable, 8 AVX2) and both sides
// of the 256-edge VM block. The last eight vertices are the other
// endpoint of every ladder edge, so they are the hubs.
func ladderGraph(t *testing.T, rng *rand.Rand, relations int) *graph.Graph {
	t.Helper()
	degs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 33, 255, 256, 257, 263, 520}
	n := 2*len(degs) + 8
	hub := func() int32 { return int32(n - 8 + rng.Intn(8)) }
	var srcs, dsts []int32
	for v, d := range degs {
		for j := 0; j < d; j++ {
			srcs, dsts = append(srcs, hub()), append(dsts, int32(v))
			srcs, dsts = append(srcs, int32(len(degs)+v)), append(dsts, hub())
		}
	}
	g, err := graph.FromEdges(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if relations > 0 {
		graph.RandomEdgeTypes(rng, g, relations)
		if err := g.SortEdgesByType(); err != nil {
			t.Fatal(err)
		}
	}
	return g.SortByDegree()
}

// backwardCase is a compiled training UDF with its inputs and the seed
// gradient, ready to run backward unit by unit.
type backwardCase struct {
	c                    *exec.CompiledUDF
	g                    *graph.Graph
	vfeat, efeat, params map[string]*tensor.Tensor
	dy                   *tensor.Tensor
	saved                map[*gir.Node]*tensor.Tensor // refinterp forward values
}

func newBackwardCase(t *testing.T, dag *gir.DAG, g *graph.Graph, rng *rand.Rand,
	vfeat, efeat, params map[string]*tensor.Tensor) *backwardCase {
	t.Helper()
	c, err := exec.Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := refinterp.Eval(c.Fwd.DAG, g, &refinterp.Bindings{VFeat: vfeat, EFeat: efeat, Params: params})
	if err != nil {
		t.Fatalf("refinterp forward: %v", err)
	}
	dy := tensor.Randn(rng, 0.5, g.N, c.Fwd.DAG.Outputs[0].Dim())
	return &backwardCase{c: c, g: g, vfeat: vfeat, efeat: efeat, params: params, dy: dy, saved: saved}
}

// runSeastarUnits executes a pass's seastar units in order and returns
// every value they materialize (bind.Inter, which later units read).
// Dense and paramgrad units are skipped: no seastar unit of the plans
// under test reads them.
func runSeastarUnits(t *testing.T, g *graph.Graph, p *exec.Pass, bind *kernels.Bindings) map[*gir.Node]*tensor.Tensor {
	t.Helper()
	bind.Inter = map[*gir.Node]*tensor.Tensor{}
	for _, u := range p.Plan.Units {
		if u.Kind != fusion.KindSeastar {
			continue
		}
		outs := make(map[*gir.Node]*tensor.Tensor)
		for _, n := range p.Materialized(u) {
			rows := g.N
			if n.Type == gir.TypeE {
				rows = g.M
			}
			outs[n] = tensor.New(rows, n.Dim())
		}
		if err := p.Kernel(u).Run(g, bind, outs); err != nil {
			t.Fatalf("unit %d: %v", u.ID, err)
		}
		for n, out := range outs {
			bind.Inter[n] = out
		}
	}
	return bind.Inter
}

// runSeastar runs the backward plan's seastar units.
func (bc *backwardCase) runSeastar(t *testing.T) map[*gir.Node]*tensor.Tensor {
	t.Helper()
	bind := &kernels.Bindings{
		VFeat: bc.vfeat, EFeat: bc.efeat, Params: bc.params,
		Grad: bc.dy, Saved: bc.saved,
	}
	return runSeastarUnits(t, bc.g, bc.c.Bwd, bind)
}

func sameTensors(t *testing.T, what string, got, want map[*gir.Node]*tensor.Tensor) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("%s: no materialized values to compare", what)
	}
	for n, g := range got {
		w, ok := want[n]
		if !ok || w.Size() != g.Size() {
			t.Fatalf("%s: %%%d missing or mis-sized in the reference", what, n.ID)
		}
		for i := 0; i < g.Size(); i++ {
			if !sameBits(g.At1(i), w.At1(i)) {
				t.Fatalf("%s: %%%d[%d] = %v, reference %v", what, n.ID, i, g.At1(i), w.At1(i))
			}
		}
	}
}

// checkBitwise pins VM ≡ refinterp on the unpruned backward DAG, bit for
// bit, across SIMD modes and worker counts.
func (bc *backwardCase) checkBitwise(t *testing.T) {
	t.Helper()
	ref, err := refinterp.Eval(bc.c.Bwd.DAG, bc.g, &refinterp.Bindings{
		VFeat: bc.vfeat, EFeat: bc.efeat, Params: bc.params, Grad: bc.dy, Saved: bc.saved,
	})
	if err != nil {
		t.Fatalf("refinterp backward: %v", err)
	}
	for _, simd := range []bool{true, false} {
		for _, procs := range []int{1, 2} {
			prevSIMD := tensor.SetSIMD(simd)
			prevProcs := sched.SetMaxProcs(procs)
			got := bc.runSeastar(t)
			sched.SetMaxProcs(prevProcs)
			tensor.SetSIMD(prevSIMD)
			sameTensors(t, fmt.Sprintf("VM vs refinterp (simd=%v procs=%d)", simd, procs), got, ref)
		}
	}
}

// bwdSpecNames returns the VM plan of every backward seastar unit; it
// fails the test if any unit needs an opStep.
func bwdSpecNames(t *testing.T, c *exec.CompiledUDF) []string {
	t.Helper()
	var names []string
	for _, u := range c.Bwd.Plan.Units {
		if u.Kind != fusion.KindSeastar {
			continue
		}
		name := c.Bwd.Kernel(u).Specialized()
		if strings.Contains(name, "step[") {
			t.Fatalf("bwd unit %d outside the grammar: %s", u.ID, name)
		}
		names = append(names, name)
	}
	return names
}

func TestSpecializeGATBackward(t *testing.T) {
	for _, dim := range []int{8, 64, 5} {
		rng := rand.New(rand.NewSource(int64(80 + dim)))
		g := ladderGraph(t, rng, 0)
		vfeat := map[string]*tensor.Tensor{
			"eu": tensor.Randn(rng, 0.5, g.N, 1),
			"ev": tensor.Randn(rng, 0.5, g.N, 1),
			"h":  tensor.Randn(rng, 0.5, g.N, dim),
		}
		bc := newBackwardCase(t, gatDAG(t, dim), g, rng, vfeat, nil, nil)
		names := bwdSpecNames(t, bc.c)
		want := []string{"scaled-gather", "dot[1]+chain[3]+scalar-agg",
			"dot[1]+chain[4]+scalar-agg", "dot[1]+chain[4]+scalar-agg"}
		if len(names) != len(want) {
			t.Fatalf("backward patterns %v, want %v", names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("backward patterns %v, want %v", names, want)
			}
		}
		bc.checkBitwise(t)
	}
}

func TestSpecializeGCNBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := ladderGraph(t, rng, 0)
	vfeat := map[string]*tensor.Tensor{
		"h":    tensor.Randn(rng, 0.5, g.N, 8),
		"norm": tensor.Uniform(rng, 0.2, 1, g.N, 1),
	}
	params := map[string]*tensor.Tensor{"W": tensor.Randn(rng, 0.5, 8, 16)}
	bc := newBackwardCase(t, gcnDAG(t, 8, 16), g, rng, vfeat, nil, params)
	if names := bwdSpecNames(t, bc.c); len(names) != 1 || names[0] != "gather" {
		t.Fatalf("GCN backward patterns %v, want [gather]", names)
	}
	bc.checkBitwise(t)
}

// TestTrainingStepUnitsBitwise covers the table's training units beside
// the ones TestSpecialize* hold: GCN's and GAT's first stages, whose
// activation's gradient a row-only unit writes, and the units whose edge
// steps fall outside the grammar and run as opSteps: R-GCN's forward
// (the saved [M, d] typed transform) and backward (the saved edge
// gradient and MatMulTypedT), behind the row-only unit that writes its
// ReLU's gradient; and APPNP's backward, whose wide MulConst·Mul chain
// over the destination runs in row-only units ahead of a plain gather.
// Forward and backward must match refinterp bit for bit.
func TestTrainingStepUnitsBitwise(t *testing.T) {
	spec := program.Spec{Hidden: 16, Classes: 8, Alpha: 0.1, K: 1}
	cases := []struct {
		name      string
		p         *program.Program
		relations int
		inputs    func(rng *rand.Rand, g *graph.Graph) (vfeat, efeat, params map[string]*tensor.Tensor)
		fwd, bwd  []string
	}{
		// The first stages of GCN and GAT end in the table's activation
		// (GCN's after its bias): a row-only unit writes its gradient once
		// per row, and the gather behind it reads that like a leaf.
		{"gcn", program.GCN(spec, 12, 1), 0,
			func(rng *rand.Rand, g *graph.Graph) (map[string]*tensor.Tensor, map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
				return map[string]*tensor.Tensor{"hw": tensor.Randn(rng, 0.5, g.N, 16), "norm": tensor.Uniform(rng, 0.2, 1, g.N, 1)},
					nil, map[string]*tensor.Tensor{"b": tensor.Randn(rng, 0.5, 16)}
			},
			[]string{"scaled-gather"}, []string{"row-only", "gather"}},
		{"gat", program.GAT(spec, 12, 1), 0,
			func(rng *rand.Rand, g *graph.Graph) (map[string]*tensor.Tensor, map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
				return map[string]*tensor.Tensor{
					"eu": tensor.Randn(rng, 0.5, g.N, 1),
					"ev": tensor.Randn(rng, 0.5, g.N, 1),
					"h":  tensor.Randn(rng, 0.5, g.N, 16),
				}, nil, nil
			},
			[]string{"chain[3]+scalar-agg", "chain[1]+scaled-gather"},
			[]string{"row-only", "scaled-gather", "dot[1]+chain[3]+scalar-agg", "dot[1]+chain[4]+scalar-agg", "dot[1]+chain[4]+scalar-agg"}},
		{"rgcn", program.RGCN(spec, 12, 3), 3,
			func(rng *rand.Rand, g *graph.Graph) (map[string]*tensor.Tensor, map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
				return map[string]*tensor.Tensor{"h": tensor.Randn(rng, 0.5, g.N, 12), "self": tensor.Randn(rng, 0.5, g.N, 16)},
					map[string]*tensor.Tensor{"norm": tensor.Uniform(rng, 0.2, 1, g.M, 1)},
					map[string]*tensor.Tensor{"W": tensor.Randn(rng, 0.5, 3, 12, 16)}
			},
			[]string{"step[1]+scaled-col→hier"}, []string{"row-only", "dot[1]+step[2]+col"}},
		{"appnp", program.APPNP(spec, 12, 1), 0,
			func(rng *rand.Rand, g *graph.Graph) (map[string]*tensor.Tensor, map[string]*tensor.Tensor, map[string]*tensor.Tensor) {
				return map[string]*tensor.Tensor{
					"h":  tensor.Randn(rng, 0.5, g.N, 8),
					"h0": tensor.Randn(rng, 0.5, g.N, 8),
					"sn": tensor.Uniform(rng, 0.2, 1, g.N, 1),
					"dn": tensor.Uniform(rng, 0.2, 1, g.N, 1),
				}, nil, nil
			},
			[]string{"scaled-gather", "row-only"}, []string{"row-only", "row-only", "gather"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(85))
			g := ladderGraph(t, rng, tc.relations)
			dag, err := tc.p.Stages[0].Plan.Trace()
			if err != nil {
				t.Fatal(err)
			}
			vfeat, efeat, params := tc.inputs(rng, g)
			bc := newBackwardCase(t, dag, g, rng, vfeat, efeat, params)
			var fwd, bwd []string
			for _, u := range bc.c.Fwd.Plan.Units {
				if u.Kind == fusion.KindSeastar {
					fwd = append(fwd, bc.c.Fwd.Kernel(u).Specialized())
				}
			}
			for _, u := range bc.c.Bwd.Plan.Units {
				if u.Kind == fusion.KindSeastar {
					bwd = append(bwd, bc.c.Bwd.Kernel(u).Specialized())
				}
			}
			if fmt.Sprint(fwd) != fmt.Sprint(tc.fwd) || fmt.Sprint(bwd) != fmt.Sprint(tc.bwd) {
				t.Fatalf("plans fwd %q bwd %q, want fwd %q bwd %q", fwd, bwd, tc.fwd, tc.bwd)
			}
			for _, simd := range []bool{true, false} {
				for _, procs := range []int{1, 2} {
					prevSIMD := tensor.SetSIMD(simd)
					prevProcs := sched.SetMaxProcs(procs)
					got := runSeastarUnits(t, g, bc.c.Fwd,
						&kernels.Bindings{VFeat: vfeat, EFeat: efeat, Params: params})
					sched.SetMaxProcs(prevProcs)
					tensor.SetSIMD(prevSIMD)
					sameTensors(t, fmt.Sprintf("forward VM vs refinterp (simd=%v procs=%d)", simd, procs), got, bc.saved)
				}
			}
			bc.checkBitwise(t)
		})
	}
}

// TestEdgesCounterSkipsRowOnly pins the kern "edges" counter behind
// kernels.edges_per_op: GCN's first-stage backward launches a row-only
// unit, which walks no edge and adds 0, then a gather, which adds M.
func TestEdgesCounterSkipsRowOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := ladderGraph(t, rng, 0)
	dag, err := program.GCN(program.Spec{Hidden: 16, Classes: 8}, 12, 1).Stages[0].Plan.Trace()
	if err != nil {
		t.Fatal(err)
	}
	bc := newBackwardCase(t, dag, g, rng,
		map[string]*tensor.Tensor{"hw": tensor.Randn(rng, 0.5, g.N, 16), "norm": tensor.Uniform(rng, 0.2, 1, g.N, 1)},
		nil, map[string]*tensor.Tensor{"b": tensor.Randn(rng, 0.5, 16)})
	obs.Reset()
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset() }()
	bc.runSeastar(t)
	edges := map[string]int64{}
	for _, e := range obs.Snapshot() {
		if e.Cat == "kern" {
			edges[e.Name] = e.Counters["edges"]
		}
	}
	var got []string
	for i, u := range bc.c.Bwd.Plan.Units {
		if u.Kind == fusion.KindSeastar {
			label := bc.c.Bwd.Labels()[i]
			got = append(got, fmt.Sprintf("%s=%d", bc.c.Bwd.Kernel(u).Specialized(), edges[label]))
		}
	}
	if want := fmt.Sprintf("[row-only=0 gather=%d]", g.M); fmt.Sprint(got) != want {
		t.Fatalf("edges per backward launch %v, want %s", got, want)
	}
}

// TestSpecializeEdgeViewTerms covers the aliased EdgeView terms: the
// gradient of Σ(self + nbr) reaches the self operand
// through Agg<D>(EdgeView(dy)) — a view of the row leaf, constant within
// the row — and the nbr operand through Agg<S>(EdgeView(dy)), a view of
// the neighbour leaf; the scaled forms multiply either by an edge
// scalar. The hetero variants run the same terms in hierarchical blocks,
// cut at every edge-type change.
func TestSpecializeEdgeViewTerms(t *testing.T) {
	cases := []struct {
		name      string
		relations int
		body      func(v *gir.Vertex) *gir.Value
		want      []string
	}{
		{"plain", 0, func(v *gir.Vertex) *gir.Value {
			return v.Self("x").Add(v.Nbr("x")).AggSum()
		}, []string{"rowvec", "gather"}},
		{"scaled", 0, func(v *gir.Vertex) *gir.Value {
			return v.Self("x").Add(v.Nbr("x")).Mul(v.Edge("w")).AggSum()
		}, []string{"scaled-rowvec", "scaled-gather"}},
		{"hier", 3, func(v *gir.Vertex) *gir.Value {
			return v.Self("x").Add(v.Nbr("x")).AggHier(gir.AggSum, gir.AggSum)
		}, []string{"rowvec", "gather"}},
		{"hier-scaled", 3, func(v *gir.Vertex) *gir.Value {
			return v.Self("x").Add(v.Nbr("x")).Mul(v.Edge("w")).AggHier(gir.AggSum, gir.AggSum)
		}, []string{"scaled-rowvec", "scaled-gather"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			g := ladderGraph(t, rng, tc.relations)
			b := gir.NewBuilder()
			b.VFeature("x", 12)
			b.EFeature("w", 1)
			dag, err := b.Build(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			vfeat := map[string]*tensor.Tensor{"x": tensor.Randn(rng, 0.5, g.N, 12)}
			efeat := map[string]*tensor.Tensor{"w": tensor.Randn(rng, 0.5, g.M, 1)}
			bc := newBackwardCase(t, dag, g, rng, vfeat, efeat, nil)
			names := bwdSpecNames(t, bc.c)
			for _, w := range tc.want {
				found := false
				for _, n := range names {
					found = found || n == w || strings.HasSuffix(n, "+"+w)
				}
				if !found {
					t.Errorf("no backward unit ends in a %q term (have %v)", w, names)
				}
			}
			bc.checkBitwise(t)
		})
	}
}

// TestPrunedKernelMatchesUnprunedReference pins dead-step pruning: GAT's
// first backward unit carries an edge chain only other units consume, so
// Compile drops it — and what the unit does materialize must still equal
// the unpruned refinterp evaluation, here on a hetero skewed graph.
func TestPrunedKernelMatchesUnprunedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := ladderGraph(t, rng, 3)
	vfeat := map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 0.5, g.N, 1),
		"ev": tensor.Randn(rng, 0.5, g.N, 1),
		"h":  tensor.Randn(rng, 0.5, g.N, 16),
	}
	bc := newBackwardCase(t, gatDAG(t, 16), g, rng, vfeat, nil, nil)
	u := bc.c.Bwd.Plan.Units[0]
	pruned := false
	for _, n := range u.Nodes {
		if n.Op == gir.OpRowSum {
			pruned = true // the dot the unit no longer computes
		}
	}
	if !pruned {
		t.Fatal("backward unit 0 no longer carries the dead RowSum chain; pick another unit")
	}
	if name := bc.c.Bwd.Kernel(u).Specialized(); name != "scaled-gather" {
		t.Fatalf("pruned unit 0 compiled as %q, want scaled-gather (dead chain still lowered?)", name)
	}
	bc.checkBitwise(t)
}

// randomTrainable traces a random differentiable vertex-centric program
// (sum and hierarchical-sum aggregations only) from seed; the same seed
// always yields the same program.
func randomTrainable(seed int64, hetero bool, dim int) (*gir.DAG, error) {
	b := gir.NewBuilder()
	b.VFeature("h", dim)
	b.VFeature("s", 1)
	if hetero {
		b.EFeature("w", 1)
	}
	return b.Build(func(v *gir.Vertex) *gir.Value {
		rng := rand.New(rand.NewSource(seed))
		pool := []*gir.Value{v.Nbr("h"), v.Self("h"), v.Nbr("s"), v.Self("s")}
		if hetero {
			pool = append(pool, v.Edge("w"))
		}
		pick := func() *gir.Value { return pool[rng.Intn(len(pool))] }
		// like picks an operand broadcast-compatible with a.
		like := func(a *gir.Value) *gir.Value {
			for {
				if c := pick(); c.Node().Dim() == a.Node().Dim() || c.Node().Dim() == 1 || a.Node().Dim() == 1 {
					return c
				}
			}
		}
		for i, n := 0, 3+rng.Intn(7); i < n; i++ {
			a := pick()
			var nv *gir.Value
			switch rng.Intn(9) {
			case 0:
				nv = a.Sigmoid()
			case 1:
				nv = a.LeakyReLU(0.2)
			case 2:
				nv = a.MulScalar(0.5).AddScalar(0.25)
			case 3:
				nv = a.Add(like(a))
			case 4, 5:
				nv = a.Mul(like(a))
			case 6:
				nv = a.Div(like(a).Sigmoid().AddScalar(1.1))
			case 7:
				if a.Node().Dim() > 1 {
					nv = a.RowSum()
				} else {
					nv = a.Tanh()
				}
			default:
				switch {
				case a.Type() == gir.TypeD:
					nv = a.Neg()
				case hetero && rng.Intn(2) == 0:
					nv = a.AggHier(gir.AggSum, gir.AggSum)
				default:
					nv = a.AggSum()
				}
			}
			pool = append(pool, nv)
		}
		// Keep the whole chain live: the output is the last value, summed
		// over edges unless it is already per-destination.
		if out := pool[len(pool)-1]; out.Type() == gir.TypeD {
			return out
		}
		return pool[len(pool)-1].AggSum()
	})
}

// TestBackwardRandomProgramsBitwise extends the bitwise contract from the
// curated models to arbitrary gradients: every backward seastar unit of a
// sweep of random differentiable programs — whatever mix of pruned
// chains, aliased EdgeViews, dots, row-vector terms and opSteps autodiff
// and fusion produce — must agree with refinterp. specialized counts the
// step-free units.
func TestBackwardRandomProgramsBitwise(t *testing.T) {
	specialized, dots := 0, 0
	for seed := int64(0); seed < 150; seed++ {
		hetero := seed%3 == 0
		dim := []int{1, 3, 8, 12}[seed%4]
		dag, err := randomTrainable(seed, hetero, dim)
		if err != nil {
			continue // shape-invalid program
		}
		rng := rand.New(rand.NewSource(1000 + seed))
		relations := 0
		if hetero {
			relations = 3
		}
		g := ladderGraph(t, rng, relations)
		vfeat := map[string]*tensor.Tensor{
			"h": tensor.Randn(rng, 0.5, g.N, dim),
			"s": tensor.Randn(rng, 0.5, g.N, 1),
		}
		var efeat map[string]*tensor.Tensor
		if hetero {
			efeat = map[string]*tensor.Tensor{"w": tensor.Randn(rng, 0.5, g.M, 1)}
		}
		bc := newBackwardCase(t, dag, g, rng, vfeat, efeat, nil)
		ran := false
		for _, u := range bc.c.Bwd.Plan.Units {
			if k := bc.c.Bwd.Kernel(u); k != nil {
				ran = true
				if name := k.Specialized(); !strings.Contains(name, "step[") {
					specialized++
					if strings.HasPrefix(name, "dot[") {
						dots++
					}
				}
			}
		}
		if !ran {
			continue // the output does not depend on any input
		}
		t.Run(fmt.Sprintf("seed%d", seed), bc.checkBitwise)
	}
	// The sweep is only worth its time if it actually reaches the new arms.
	t.Logf("sweep: %d specialized backward units, %d with a dot", specialized, dots)
	if specialized < 40 || dots < 5 {
		t.Errorf("sweep reached %d specialized backward units, %d with a dot; want ≥40 and ≥5", specialized, dots)
	}
}
