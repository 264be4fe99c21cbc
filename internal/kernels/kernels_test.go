package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// planFor traces, optimizes and partitions a UDF.
func planFor(t *testing.T, setup func(b *gir.Builder) gir.UDF) (*fusion.Plan, *gir.DAG) {
	t.Helper()
	b := gir.NewBuilder()
	udf := setup(b)
	dag, err := b.Build(udf)
	if err != nil {
		t.Fatal(err)
	}
	dag = fusion.Optimize(dag)
	plan, err := fusion.Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	return plan, dag
}

// runSeastarUnits executes all seastar units of a plan in order, returning
// the tensor of the DAG output. Dense units are not expected here.
func runSeastarUnits(t *testing.T, plan *fusion.Plan, g *graph.Graph, b *Bindings) *tensor.Tensor {
	t.Helper()
	if b.Inter == nil {
		b.Inter = make(map[*gir.Node]*tensor.Tensor)
	}
	mat := plan.Materialized(nil)
	avail := map[*gir.Node]bool{}
	for _, ns := range mat {
		for _, n := range ns {
			avail[n] = true
		}
	}
	for _, u := range plan.Units {
		if u.Kind != fusion.KindSeastar {
			t.Fatalf("unexpected %s unit in seastar-only plan", u.Kind)
		}
		k, err := Compile(u, mat[u], avail)
		if err != nil {
			t.Fatal(err)
		}
		outs := make(map[*gir.Node]*tensor.Tensor)
		for _, m := range mat[u] {
			rows := g.N
			if m.Type == gir.TypeE {
				rows = g.M
			}
			outs[m] = tensor.New(rows, m.Dim())
		}
		if err := k.Run(g, b, outs); err != nil {
			t.Fatal(err)
		}
		for n, tt := range outs {
			b.Inter[n] = tt
		}
	}
	out, ok := b.Inter[plan.DAG.Outputs[0]]
	if !ok {
		t.Fatal("output not materialized")
	}
	return out
}

func TestSeastarKernelCopySum(t *testing.T) {
	// out[v] = Σ_{u→v} h[u] on the Figure-7 graph, checked by hand.
	g := graph.Figure7()
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 2)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	h := tensor.FromSlice([]float32{
		1, 10, // A
		2, 20, // B
		3, 30, // C
		4, 40, // D
	}, 4, 2)
	out := runSeastarUnits(t, plan, g, &Bindings{
		VFeat: map[string]*tensor.Tensor{"h": h},
	})
	// In-edges: A←{B,C,D}, B←{A,C}, C←{D}, D←{B}.
	want := tensor.FromSlice([]float32{
		9, 90,
		4, 40,
		4, 40,
		2, 20,
	}, 4, 2)
	if !tensor.AllClose(out, want, 1e-5) {
		t.Fatalf("got %v", out)
	}
}

func TestSeastarKernelOnSortedGraphMatchesUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.GNM(rng, 40, 300)
	h := tensor.Randn(rng, 1, 40, 8)
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 8)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").Exp().AggSum() }
	})
	bind := func() *Bindings { return &Bindings{VFeat: map[string]*tensor.Tensor{"h": h}} }
	a := runSeastarUnits(t, plan, g, bind())
	bOut := runSeastarUnits(t, plan, g.SortByDegree(), bind())
	if !tensor.AllClose(a, bOut, 1e-4) {
		t.Fatalf("sorted vs unsorted diverge: %g", tensor.MaxAbsDiff(a, bOut))
	}
}

// naiveGAT computes the GAT attention layer directly from the formulas in
// the paper's Figure 2 (with eu/ev precomputed).
func naiveGAT(g *graph.Graph, eu, ev, h *tensor.Tensor, slope float32) *tensor.Tensor {
	n := g.N
	d := h.Cols()
	out := tensor.New(n, d)
	for k := 0; k < n; k++ {
		v := int(g.In.RowIDs[k])
		nbrs := g.In.Row(k)
		if len(nbrs) == 0 {
			continue
		}
		exps := make([]float32, len(nbrs))
		var sum float32
		for i, u := range nbrs {
			x := eu.At(int(u), 0) + ev.At(v, 0)
			if x < 0 {
				x *= slope
			}
			exps[i] = float32(math.Exp(float64(x)))
			sum += exps[i]
		}
		or := out.Row(v)
		for i, u := range nbrs {
			a := exps[i] / sum
			hr := h.Row(int(u))
			for j := 0; j < d; j++ {
				or[j] += a * hr[j]
			}
		}
	}
	return out
}

func gatPlan(t *testing.T, dim int) (*fusion.Plan, *gir.DAG) {
	return planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("eu", 1)
		b.VFeature("ev", 1)
		b.VFeature("h", dim)
		return func(v *gir.Vertex) *gir.Value {
			e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
			a := e.Div(e.AggSum())
			return a.Mul(v.Nbr("h")).AggSum()
		}
	})
}

func TestSeastarKernelGATMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := graph.PowerLaw(rng, 200, 4).SortByDegree()
	eu := tensor.Randn(rng, 1, 200, 1)
	ev := tensor.Randn(rng, 1, 200, 1)
	h := tensor.Randn(rng, 1, 200, 16)
	plan, _ := gatPlan(t, 16)
	out := runSeastarUnits(t, plan, g, &Bindings{
		VFeat: map[string]*tensor.Tensor{"eu": eu, "ev": ev, "h": h},
	})
	want := naiveGAT(g, eu, ev, h, 0.2)
	if !tensor.AllClose(out, want, 1e-3) {
		t.Fatalf("GAT mismatch: max diff %g", tensor.MaxAbsDiff(out, want))
	}
}

// TestSeastarKernelVariantsAgreeOnValues pins that Figure 12's variants
// change only what a launch is charged: Run takes no Config, and charging
// the same kernel under every variant between runs leaves its values bit
// for bit unchanged.
func TestSeastarKernelVariantsAgreeOnValues(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.PowerLaw(rng, 150, 3)
	h := tensor.Randn(rng, 1, 150, 8)
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 8)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	u := plan.Units[0]
	k, err := Compile(u, plan.Materialized(nil)[u], nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *tensor.Tensor {
		out := tensor.New(g.N, 8)
		if err := k.Run(g, &Bindings{VFeat: map[string]*tensor.Tensor{"h": h}},
			map[*gir.Node]*tensor.Tensor{plan.DAG.Outputs[0]: out}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run()
	for name, cfg := range map[string]Config{
		"basic":       {BlockSize: 256, FeatureAdaptive: false},
		"atomic":      {BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedAtomic},
		"static":      {BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedStatic},
		"small-block": {BlockSize: 64, FeatureAdaptive: true},
	} {
		dev := device.New(device.V100)
		k.LaunchOnly(dev, g, cfg)
		if dev.ElapsedNs() <= 0 {
			t.Fatalf("%s: the launch charged nothing", name)
		}
		if !bitIdentical(run(), ref) {
			t.Fatalf("%s: values changed after charging the launch", name)
		}
	}
}

func TestSeastarBackwardDirectionUsesOutCSR(t *testing.T) {
	// An A:S unit must aggregate over OUT-edges: craft one directly.
	g := graph.Figure7()
	b := gir.NewBuilder()
	b.VFeature("x", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value { return v.Nbr("x").AggSum() })
	if err != nil {
		t.Fatal(err)
	}
	// Flip the aggregation to A:S (as autodiff does).
	agg := dag.Outputs[0]
	agg.Dir = gir.AggToSrc
	agg.Type = gir.TypeS
	// And its input leaf becomes the "neighbour" (dst) view: D-typed.
	dag.Nodes[0].LeafKind = gir.LeafDstFeat
	dag.Nodes[0].Type = gir.TypeD

	plan, err := fusion.Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	mat := plan.Materialized(nil)
	k, err := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)
	out := tensor.New(4, 1)
	err = k.Run(g, &Bindings{VFeat: map[string]*tensor.Tensor{"x": x}},
		map[*gir.Node]*tensor.Tensor{agg: out})
	if err != nil {
		t.Fatal(err)
	}
	// out[u] = Σ_{u→v} x[v]. Out-edges: A→B; B→{A,D}; C→{A,B}; D→{A,C}.
	want := tensor.FromSlice([]float32{2, 5, 3, 4}, 4, 1)
	if !tensor.AllClose(out, want, 1e-6) {
		t.Fatalf("A:S aggregation: %v", out)
	}
}

func TestHeteroKernelHierSumAndMax(t *testing.T) {
	g := graph.Figure7()
	types := []int32{0, 1, 1, 0, 0, 1, 0}
	if err := g.WithEdgeTypes(types, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)

	run := func(inner, outer gir.AggKind) *tensor.Tensor {
		plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
			b.VFeature("x", 1)
			return func(v *gir.Vertex) *gir.Value {
				return v.Nbr("x").AggHier(inner, outer)
			}
		})
		return runSeastarUnits(t, plan, g, &Bindings{
			VFeat: map[string]*tensor.Tensor{"x": x},
		})
	}

	// sum/sum equals a flat sum.
	got := run(gir.AggSum, gir.AggSum)
	want := tensor.FromSlice([]float32{9, 4, 4, 2}, 4, 1)
	if !tensor.AllClose(got, want, 1e-6) {
		t.Fatalf("hier sum/sum: %v", got)
	}

	// sum inner, max outer: vertex A has in-edges B(e0,type0), C(e1,t1),
	// D(e2,t1) → type0 sum = x[B]=2, type1 sum = x[C]+x[D]=7 → max 7.
	got = run(gir.AggSum, gir.AggMax)
	if got.At(0, 0) != 7 {
		t.Fatalf("hier sum/max at A: %v", got.At(0, 0))
	}
	// B has in-edges A(e3,t0), C(e4,t0) → single group sum 4 → max 4.
	if got.At(1, 0) != 4 {
		t.Fatalf("hier sum/max at B: %v", got.At(1, 0))
	}
}

func TestHeteroKernelRequiresEdgeTypes(t *testing.T) {
	g := graph.Figure7() // no types attached
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("x", 1)
		return func(v *gir.Vertex) *gir.Value {
			return v.Nbr("x").AggHier(gir.AggSum, gir.AggSum)
		}
	})
	mat := plan.Materialized(nil)
	k, err := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 1)
	err = k.Run(g,
		&Bindings{VFeat: map[string]*tensor.Tensor{"x": x}},
		map[*gir.Node]*tensor.Tensor{plan.DAG.Outputs[0]: tensor.New(4, 1)})
	if err == nil {
		t.Fatal("expected edge-type error")
	}
}

func TestTypedMatMulKernel(t *testing.T) {
	g := graph.Figure7()
	types := []int32{0, 1, 1, 0, 0, 1, 0}
	if err := g.WithEdgeTypes(types, 2); err != nil {
		t.Fatal(err)
	}
	var wNode *gir.Value
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 2)
		wNode = b.Param("W", 2, 2, 1) // 2 relations, [2,1] each
		return func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").MatMulTyped(wNode).AggSum()
		}
	})
	h := tensor.FromSlice([]float32{
		1, 1,
		2, 2,
		3, 3,
		4, 4,
	}, 4, 2)
	// W[0] = [1, 1]ᵀ (sums the row), W[1] = [10, 0]ᵀ (10 × first elem).
	W := tensor.FromSlice([]float32{1, 1, 10, 0}, 2, 2, 1)
	out := runSeastarUnits(t, plan, g, &Bindings{
		VFeat:  map[string]*tensor.Tensor{"h": h},
		Params: map[string]*tensor.Tensor{"W": W},
	})
	// A's in-edges: B(t0): 2+2=4; C(t1): 10·3=30; D(t1): 10·4=40 → 74.
	if out.At(0, 0) != 74 {
		t.Fatalf("typed matmul at A: %v", out.At(0, 0))
	}
	// B: A(t0): 1+1=2; C(t0): 3+3=6 → 8.
	if out.At(1, 0) != 8 {
		t.Fatalf("typed matmul at B: %v", out.At(1, 0))
	}
}

func TestKernelCostOrderings(t *testing.T) {
	// Simulated-time orderings of Figure 12: Basic ≥ FA on small
	// features; on a skewed graph, static striping ≥ hardware dynamic
	// scheduling with degree sorting.
	rng := rand.New(rand.NewSource(14))
	g := graph.PowerLaw(rng, 5000, 8)
	sorted := g.SortByDegree()
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 16)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	mat := plan.Materialized(nil)
	k, err := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	time := func(gg *graph.Graph, cfg Config) float64 {
		dev := device.New(device.GTX1080Ti)
		k.LaunchOnly(dev, gg, cfg)
		return dev.ElapsedNs()
	}
	basic := time(sorted, Config{BlockSize: 256, FeatureAdaptive: false})
	fa := time(sorted, Config{BlockSize: 256, FeatureAdaptive: true})
	if basic < fa {
		t.Fatalf("Basic (%v) should not beat FA (%v) at width 16", basic, fa)
	}
	faStatic := time(g, Config{BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedStatic})
	faDyn := time(sorted, Config{BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedHardware})
	if faStatic < faDyn {
		t.Fatalf("unsorted static (%v) should not beat sorted dynamic (%v)", faStatic, faDyn)
	}
}

func TestBinaryReduceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.GNM(rng, 30, 200)
	x := tensor.Randn(rng, 1, 30, 4)
	e := tensor.Randn(rng, 1, 200, 1)
	dev := device.New(device.V100)

	got := BinaryReduce(dev, g, Operand{x, KSrc}, Operand{e, KEdge}, BMul, gir.AggSum, true, "t")
	want := tensor.New(30, 4)
	for eid := 0; eid < g.M; eid++ {
		u, v := int(g.Srcs[eid]), int(g.Dsts[eid])
		for j := 0; j < 4; j++ {
			want.Set(v, j, want.At(v, j)+x.At(u, j)*e.At(eid, 0))
		}
	}
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("BinaryReduce sum: %g", tensor.MaxAbsDiff(got, want))
	}
	if dev.Stats().AtomicOps == 0 {
		t.Fatal("minigun reduction must charge atomics")
	}

	// Reduce to sources (backward direction).
	gotS := BinaryReduce(dev, g, Operand{x, KDst}, Operand{}, BLeft, gir.AggSum, false, "t2")
	wantS := tensor.New(30, 4)
	for eid := 0; eid < g.M; eid++ {
		u, v := int(g.Srcs[eid]), int(g.Dsts[eid])
		for j := 0; j < 4; j++ {
			wantS.Set(u, j, wantS.At(u, j)+x.At(v, j))
		}
	}
	if !tensor.AllClose(gotS, wantS, 1e-4) {
		t.Fatal("BinaryReduce to-src mismatch")
	}
}

func TestBinaryReduceMaxMinMean(t *testing.T) {
	g := graph.Figure7()
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)
	dev := device.New(device.V100)
	mx := BinaryReduce(dev, g, Operand{x, KSrc}, Operand{}, BLeft, gir.AggMax, true, "max")
	// A ← {B,C,D} = max(2,3,4)=4; isolated rows → 0.
	if mx.At(0, 0) != 4 || mx.At(2, 0) != 4 {
		t.Fatalf("max: %v", mx)
	}
	mn := BinaryReduce(dev, g, Operand{x, KSrc}, Operand{}, BLeft, gir.AggMin, true, "min")
	if mn.At(0, 0) != 2 {
		t.Fatalf("min: %v", mn)
	}
	me := BinaryReduce(dev, g, Operand{x, KSrc}, Operand{}, BLeft, gir.AggMean, true, "mean")
	if me.At(0, 0) != 3 {
		t.Fatalf("mean: %v", me)
	}
}

func TestEdgeBinaryAndDot(t *testing.T) {
	g := graph.Figure7()
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)
	bT := tensor.FromSlice([]float32{10, 20, 30, 40}, 4, 1)
	dev := device.New(device.V100)
	e := EdgeBinary(dev, g, Operand{a, KSrc}, Operand{bT, KDst}, BAdd, "uaddv")
	// Edge 0 is B→A: a[B] + b[A] = 2 + 10 = 12.
	if e.At(0, 0) != 12 {
		t.Fatalf("u_add_v edge0: %v", e.At(0, 0))
	}
	// Dot of [N,2] rows.
	h := tensor.FromSlice([]float32{1, 1, 2, 2, 3, 3, 4, 4}, 4, 2)
	d := EdgeBinary(dev, g, Operand{h, KSrc}, Operand{h, KDst}, BDot, "dot")
	if d.Cols() != 1 {
		t.Fatal("dot width")
	}
	// Edge 0 B→A: (2,2)·(1,1) = 4.
	if d.At(0, 0) != 4 {
		t.Fatalf("dot edge0: %v", d.At(0, 0))
	}
}

func TestGatherScatterPrimitives(t *testing.T) {
	g := graph.Figure7()
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1)
	dev := device.New(device.V100)
	ge := Gather(dev, g, x, true, "gather")
	if ge.Rows() != g.M || ge.At(0, 0) != 2 { // edge 0 src = B
		t.Fatalf("gather: %v", ge)
	}
	s := ScatterSum(dev, g, ge, true, "scatter")
	want := tensor.FromSlice([]float32{9, 4, 4, 2}, 4, 1)
	if !tensor.AllClose(s, want, 1e-6) {
		t.Fatalf("scatter: %v", s)
	}
	if dev.Stats().AtomicOps == 0 {
		t.Fatal("scatter must charge atomics")
	}
}

func TestDGLBaselineSlowerThanSeastar(t *testing.T) {
	// The core performance claim at kernel level: for the same
	// neighbour aggregation, the minigun-style kernel is slower than the
	// seastar kernel on a skewed graph.
	rng := rand.New(rand.NewSource(16))
	g := graph.PowerLaw(rng, 20000, 16)
	sorted := g.SortByDegree()
	h := tensor.Randn(rng, 1, 20000, 16)

	dglDev := device.New(device.GTX1080Ti)
	BinaryReduce(dglDev, g, Operand{h, KSrc}, Operand{}, BLeft, gir.AggSum, true, "dgl")

	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 16)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	mat := plan.Materialized(nil)
	k, err := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	seaDev := device.New(device.GTX1080Ti)
	k.LaunchOnly(seaDev, sorted, DefaultConfig())
	if seaDev.ElapsedNs() >= dglDev.ElapsedNs() {
		t.Fatalf("seastar (%v ns) not faster than DGL baseline (%v ns)",
			seaDev.ElapsedNs(), dglDev.ElapsedNs())
	}
}

func TestCompileRejectsNonSeastarUnit(t *testing.T) {
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 4)
		W := b.Param("W", 4, 2)
		return func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").MatMul(W).AggSum()
		}
	})
	for _, u := range plan.Units {
		if u.Kind == fusion.KindDense {
			if _, err := Compile(u, nil, nil); err == nil {
				t.Fatal("compiled a dense unit as seastar")
			}
		}
	}
}

// TestCompileRejectsUnfusableOp hand-builds a seastar unit whose edge
// stage holds a dense MatMul, which no fused kernel can run: Compile must
// refuse it, before any launch could write a row.
func TestCompileRejectsUnfusableOp(t *testing.T) {
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	W := b.Param("W", 4, 2)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMul(W).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	u := &fusion.Unit{Kind: fusion.KindSeastar}
	for _, n := range dag.Nodes {
		if n.Op != gir.OpLeaf {
			u.Nodes = append(u.Nodes, n)
		}
	}
	if u.Nodes[0].Op != gir.OpMatMulP {
		t.Fatalf("unit starts with %s, want the dense MatMul", u.Nodes[0].Op)
	}
	if _, err := Compile(u, nil, nil); err == nil || !strings.Contains(err.Error(), "cannot run inside a fused kernel") {
		t.Fatalf("Compile = %v, want the unfusable-op error", err)
	}
}

func TestRunErrorsOnMissingBindings(t *testing.T) {
	g := graph.Figure7()
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 2)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	mat := plan.Materialized(nil)
	k, _ := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	outs := map[*gir.Node]*tensor.Tensor{plan.DAG.Outputs[0]: tensor.New(4, 2)}
	if err := k.Run(g, &Bindings{}, outs); err == nil {
		t.Fatal("missing feature binding accepted")
	}
	// Missing output tensor.
	if err := k.Run(g,
		&Bindings{VFeat: map[string]*tensor.Tensor{"h": tensor.New(4, 2)}},
		map[*gir.Node]*tensor.Tensor{}); err == nil {
		t.Fatal("missing output tensor accepted")
	}
}

// TestRunRefusesAggToSrcWithoutOutCSR: an A:S unit launched on a graph
// that carries no out-CSR (a sampled batch, a shard fragment) is an
// error, not an index fault.
func TestRunRefusesAggToSrcWithoutOutCSR(t *testing.T) {
	b := gir.NewBuilder()
	b.VFeature("x", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value { return v.Nbr("x").AggSum() })
	if err != nil {
		t.Fatal(err)
	}
	agg := dag.Outputs[0]
	agg.Dir, agg.Type = gir.AggToSrc, gir.TypeS
	dag.Nodes[0].LeafKind, dag.Nodes[0].Type = gir.LeafDstFeat, gir.TypeD
	plan, err := fusion.Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(plan.Units[0], plan.Materialized(nil)[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Figure7()
	inOnly, err := graph.FromInEdges(full.N, full.Srcs, full.Dsts, []int{full.N})
	if err != nil {
		t.Fatal(err)
	}
	err = k.Run(inOnly, &Bindings{VFeat: map[string]*tensor.Tensor{"x": tensor.New(4, 1)}},
		map[*gir.Node]*tensor.Tensor{agg: tensor.New(4, 1)})
	if err == nil || !strings.Contains(err.Error(), "out-CSR") {
		t.Fatalf("an A:S launch without an out-CSR returned %v", err)
	}
}

// overlaps reports whether slice x shares memory with t's data.
func overlaps(x []float32, t *tensor.Tensor) bool {
	d := t.Data()
	if cap(x) == 0 || len(d) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	d0 := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
	return x0 < d0+uintptr(len(d))*4 && d0 < x0+uintptr(cap(x))*4
}

// arenaViews lists every slice a's fields hold.
func arenaViews(a *runArena) [][]float32 {
	var out [][]float32
	for _, group := range [][][]float32{a.slots, a.accs, a.inner, a.cols, a.wcols, a.rowCols, a.view, {a.svals}} {
		out = append(out, group...)
	}
	for _, s := range a.tstate {
		out = append(out, s.target, s.wd, s.tmp, s.buf)
	}
	return out
}

// TestRunLeavesNoTensorInArenas: after Run returns, no worker arena holds
// a view of the launch's input or output tensors — the slot table's
// bindings, an in-walk's in-place edge columns and the terms' data are
// dropped with the kernel's own, so a kernel pins no buffer between
// launches.
// Both the serial and the parallel launch path are covered, on a GAT
// forward: row leaves, gathers, stored edge and row values.
func TestRunLeavesNoTensorInArenas(t *testing.T) {
	defer sched.SetMaxProcs(sched.MaxProcs)
	rng := rand.New(rand.NewSource(15))
	g := graph.PowerLaw(rng, 3000, 6).SortByDegree()
	gat, _ := gatPlan(t, 16)
	in := map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 1, g.N, 1), "ev": tensor.Randn(rng, 1, g.N, 1), "h": tensor.Randn(rng, 1, g.N, 16),
	}
	for _, procs := range []int{1, 4} {
		sched.SetMaxProcs(procs)
		mat := gat.Materialized(nil)
		avail := map[*gir.Node]bool{}
		for _, ns := range mat {
			for _, n := range ns {
				avail[n] = true
			}
		}
		inter := map[*gir.Node]*tensor.Tensor{}
		var tensors []*tensor.Tensor
		for _, x := range in {
			tensors = append(tensors, x)
		}
		var kerns []*Kernel
		for _, u := range gat.Units {
			k, err := Compile(u, mat[u], avail)
			if err != nil {
				t.Fatal(err)
			}
			outs := map[*gir.Node]*tensor.Tensor{}
			for _, m := range mat[u] {
				rows := g.N
				if m.Type == gir.TypeE {
					rows = g.M
				}
				outs[m] = tensor.New(rows, m.Dim())
				tensors = append(tensors, outs[m])
			}
			if err := k.Run(g, &Bindings{VFeat: in, Inter: inter}, outs); err != nil {
				t.Fatal(err)
			}
			for n, x := range outs {
				inter[n] = x
			}
			kerns = append(kerns, k)
		}
		for ki, k := range kerns {
			if len(k.arenas) == 0 {
				t.Fatalf("procs %d: unit %d ran without an arena", procs, ki)
			}
			for w, a := range k.arenas {
				if a == nil {
					continue
				}
				for _, x := range arenaViews(a) {
					for ti, tt := range tensors {
						if overlaps(x, tt) {
							t.Fatalf("procs %d: unit %d arena %d still holds a view of launch tensor %d after Run", procs, ki, w, ti)
						}
					}
				}
			}
		}
	}
}

// TestRunDoesNotPinGraph: once Run returns, the kernel holds no reference
// to the graph it ran on — the row partition it caches for the next launch
// over the same graph is keyed by the offsets' address, not a pointer — so
// a request's sample or a batch's block is freed as soon as its caller
// drops it, while repeated launches over one graph still reuse their
// partition. The launches take the parallel path, the one that partitions.
func TestRunDoesNotPinGraph(t *testing.T) {
	defer sched.SetMaxProcs(sched.MaxProcs)
	sched.SetMaxProcs(4)
	rng := rand.New(rand.NewSource(16))
	const n = 3000
	gat, _ := gatPlan(t, 16)
	mat := gat.Materialized(nil)
	u := gat.Units[0]
	k, err := Compile(u, mat[u], map[*gir.Node]bool{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 1, n, 1), "ev": tensor.Randn(rng, 1, n, 1), "h": tensor.Randn(rng, 1, n, 16),
	}
	run := func(g *graph.Graph) {
		outs := map[*gir.Node]*tensor.Tensor{}
		for _, m := range mat[u] {
			rows := g.N
			if m.Type == gir.TypeE {
				rows = g.M
			}
			outs[m] = tensor.New(rows, m.Dim())
		}
		if err := k.Run(g, &Bindings{VFeat: in}, outs); err != nil {
			t.Fatal(err)
		}
	}
	var freed atomic.Bool
	func() {
		g := graph.PowerLaw(rng, n, 6).SortByDegree()
		run(g)
		runtime.SetFinalizer(g, func(*graph.Graph) { freed.Store(true) })
	}()
	if k.ranges == nil {
		t.Fatal("the launch took the serial path; the test needs the partitioned one")
	}
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC() // a finalizer runs on its own goroutine after the cycle
		time.Sleep(5 * time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the kernel still holds the graph it last ran on after Run returned")
	}

	g := graph.PowerLaw(rng, n, 6).SortByDegree()
	run(g)
	first := &k.ranges[0]
	run(g)
	if &k.ranges[0] != first {
		t.Error("a second launch over the same graph rebuilt its row partition")
	}
}
