package kernels

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
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
func runSeastarUnits(t *testing.T, plan *fusion.Plan, g *graph.Graph, cfg Config, b *Bindings) *tensor.Tensor {
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
		if err := k.Run(g, cfg, b, outs); err != nil {
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
	out := runSeastarUnits(t, plan, g, DefaultConfig(), &Bindings{
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
	a := runSeastarUnits(t, plan, g, DefaultConfig(), bind())
	bOut := runSeastarUnits(t, plan, g.SortByDegree(), DefaultConfig(), bind())
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
		nbrs, _ := g.In.Row(k)
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
	out := runSeastarUnits(t, plan, g, DefaultConfig(), &Bindings{
		VFeat: map[string]*tensor.Tensor{"eu": eu, "ev": ev, "h": h},
	})
	want := naiveGAT(g, eu, ev, h, 0.2)
	if !tensor.AllClose(out, want, 1e-3) {
		t.Fatalf("GAT mismatch: max diff %g", tensor.MaxAbsDiff(out, want))
	}
}

func TestSeastarKernelVariantsAgreeOnValues(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.PowerLaw(rng, 150, 3)
	eu := tensor.Randn(rng, 1, 150, 1)
	ev := tensor.Randn(rng, 1, 150, 1)
	h := tensor.Randn(rng, 1, 150, 8)
	plan, _ := gatPlan(t, 8)
	bind := func() *Bindings {
		return &Bindings{VFeat: map[string]*tensor.Tensor{"eu": eu, "ev": ev, "h": h}}
	}
	ref := runSeastarUnits(t, plan, g, DefaultConfig(), bind())
	for name, cfg := range map[string]Config{
		"basic":       {BlockSize: 256, FeatureAdaptive: false},
		"atomic":      {BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedAtomic},
		"static":      {BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedStatic},
		"small-block": {BlockSize: 64, FeatureAdaptive: true},
	} {
		got := runSeastarUnits(t, plan, g, cfg, bind())
		if !tensor.AllClose(got, ref, 1e-4) {
			t.Fatalf("%s: values diverge", name)
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
	err = k.Run(g, DefaultConfig(), &Bindings{VFeat: map[string]*tensor.Tensor{"x": x}},
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
		return runSeastarUnits(t, plan, g, DefaultConfig(), &Bindings{
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
	err = k.Run(g, DefaultConfig(),
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
	out := runSeastarUnits(t, plan, g, DefaultConfig(), &Bindings{
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
	ge, err := GatherVertex(dev, g, x, true, "gather")
	if err != nil {
		t.Fatal(err)
	}
	if ge.Rows() != g.M || ge.At(0, 0) != 2 { // edge 0 src = B
		t.Fatalf("gather: %v", ge)
	}
	s := ScatterSum(dev, g, ge, true, "scatter")
	want := tensor.FromSlice([]float32{9, 4, 4, 2}, 4, 1)
	if !tensor.AllClose(s, want, 1e-6) {
		t.Fatalf("scatter: %v", s)
	}
	if _, err := GatherVertex(dev, g, tensor.New(3, 1), true, "bad"); err == nil {
		t.Fatal("gather of wrong-size tensor accepted")
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

func TestRunErrorsOnMissingBindings(t *testing.T) {
	g := graph.Figure7()
	plan, _ := planFor(t, func(b *gir.Builder) gir.UDF {
		b.VFeature("h", 2)
		return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() }
	})
	mat := plan.Materialized(nil)
	k, _ := Compile(plan.Units[0], mat[plan.Units[0]], nil)
	outs := map[*gir.Node]*tensor.Tensor{plan.DAG.Outputs[0]: tensor.New(4, 2)}
	if err := k.Run(g, DefaultConfig(), &Bindings{}, outs); err == nil {
		t.Fatal("missing feature binding accepted")
	}
	// Missing output tensor.
	if err := k.Run(g, DefaultConfig(),
		&Bindings{VFeat: map[string]*tensor.Tensor{"h": tensor.New(4, 2)}},
		map[*gir.Node]*tensor.Tensor{}); err == nil {
		t.Fatal("missing output tensor accepted")
	}
}
