// Property tests for the closure compiler (specialize.go): the three
// canonical Seastar models — GCN, GAT, R-GCN — must (a) compile to the
// expected VM plan, and (b) produce outputs bitwise identical to the
// definitional refinterp oracle on the same DAG, with SIMD on or off,
// serial or across workers, and in the presence of zero-degree rows. The
// test lives in the external test package so it can drive exec (which
// imports kernels) without an import cycle.
package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/refinterp"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// sameBits reports bit-identity, treating any two NaNs as equal.
func sameBits(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// gatDAG is the GAT layer body exactly as program.GAT declares it: scalar attention logits, edge softmax, weighted neighbour sum.
func gatDAG(t *testing.T, dim int) *gir.DAG {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("eu", 1)
	b.VFeature("ev", 1)
	b.VFeature("h", dim)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
		a := e.Div(e.AggSum())
		return a.Mul(v.Nbr("h")).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

// gcnDAG is the GCN layer body: transformed neighbour features scaled
// by the symmetric norm, summed.
func gcnDAG(t *testing.T, din, dout int) *gir.DAG {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("h", din)
	b.VFeature("norm", 1)
	W := b.Param("W", din, dout)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

// rgcnDAG is the R-GCN layer body: per-relation transform, edge norm,
// hierarchical (per-type then cross-type) sum.
func rgcnDAG(t *testing.T, rels, din, dout int) *gir.DAG {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("h", din)
	b.EFeature("norm", 1)
	Ws := b.Param("W", rels, din, dout)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

// seastarSpecNames collects the VM plan of every forward seastar unit;
// it fails the test if any unit needs an opStep.
func seastarSpecNames(t *testing.T, c *exec.CompiledUDF) []string {
	t.Helper()
	var names []string
	for _, u := range c.FwdPlan.Units {
		if u.Kind != fusion.KindSeastar {
			continue
		}
		k := c.FwdKernel(u)
		if k == nil {
			t.Fatalf("seastar unit %d has no kernel", u.ID)
		}
		name := k.Specialized()
		if strings.Contains(name, "step[") {
			t.Fatalf("unit %d outside the grammar: %s", u.ID, name)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		t.Fatal("plan has no seastar units")
	}
	return names
}

// checkBitwise runs the compiled UDF on the VM across SIMD and
// worker-count variations; every variant must match the refinterp oracle
// on the same optimized DAG bit for bit.
func checkBitwise(t *testing.T, c *exec.CompiledUDF, g *graph.Graph,
	vfeat, efeat, params map[string]*tensor.Tensor) {
	t.Helper()

	bind := &refinterp.Bindings{VFeat: vfeat, EFeat: efeat, Params: params}
	vals, err := refinterp.Eval(c.Fwd, g, bind)
	if err != nil {
		t.Fatalf("refinterp: %v", err)
	}
	want := vals[c.Fwd.Outputs[0]]

	for _, simd := range []bool{true, false} {
		prevSIMD := tensor.SetSIMD(simd)
		for _, procs := range []int{1, 4} {
			prevProcs := sched.SetMaxProcs(procs)
			got, err := c.Infer(&exec.InferEnv{G: g}, vfeat, efeat, params)
			sched.SetMaxProcs(prevProcs)
			if err != nil {
				tensor.SetSIMD(prevSIMD)
				t.Fatalf("infer (simd=%v procs=%d): %v", simd, procs, err)
			}
			if got.Size() != want.Size() {
				tensor.SetSIMD(prevSIMD)
				t.Fatalf("output size %d != refinterp %d", got.Size(), want.Size())
			}
			for i := 0; i < want.Size(); i++ {
				if !sameBits(got.At1(i), want.At1(i)) {
					tensor.SetSIMD(prevSIMD)
					t.Fatalf("output[%d] (simd=%v procs=%d): VM %v (bits %08x) != refinterp %v (bits %08x)",
						i, simd, procs,
						got.At1(i), math.Float32bits(got.At1(i)),
						want.At1(i), math.Float32bits(want.At1(i)))
				}
			}
		}
		tensor.SetSIMD(prevSIMD)
	}
}

func TestSpecializeGAT(t *testing.T) {
	c, err := exec.CompileInference(gatDAG(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	names := seastarSpecNames(t, c)
	// The fused GAT plan carries both the edge-softmax scalar chain and
	// the weighted gather; at least one unit must use the scaled gather.
	found := false
	for _, n := range names {
		if n == "chain[4]+scalar-agg+scaled-gather" || n == "chain[4]+scaled-gather" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no GAT-shaped pattern among %v", names)
	}

	rng := rand.New(rand.NewSource(61))
	// GNM with few edges leaves some rows at degree zero, exercising the
	// finalizeAcc zero fill.
	g := graph.GNM(rng, 400, 900).SortByDegree()
	vfeat := map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 0.5, 400, 1),
		"ev": tensor.Randn(rng, 0.5, 400, 1),
		"h":  tensor.Randn(rng, 0.5, 400, 16),
	}
	checkBitwise(t, c, g, vfeat, nil, nil)
}

// TestSpecializeGATForwardUnits compares what each forward unit
// materializes, not only the layer output: what the edge-softmax unit
// hands to the aggregate unit must match refinterp bit for bit on a
// skewed graph, serial and across workers, with SIMD on and off.
func TestSpecializeGATForwardUnits(t *testing.T) {
	c, err := exec.CompileInference(gatDAG(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	seastarSpecNames(t, c)
	rng := rand.New(rand.NewSource(65))
	g := graph.ZipfDegree(rng, 6000, 8, 1.0).SortByDegree()
	vfeat := map[string]*tensor.Tensor{
		"eu": tensor.Randn(rng, 1, g.N, 1),
		"ev": tensor.Randn(rng, 1, g.N, 1),
		"h":  tensor.Randn(rng, 1, g.N, 8),
	}
	want, err := refinterp.Eval(c.Fwd, g, &refinterp.Bindings{VFeat: vfeat})
	if err != nil {
		t.Fatalf("refinterp: %v", err)
	}
	for _, simd := range []bool{true, false} {
		for _, procs := range []int{1, 2} {
			prevSIMD := tensor.SetSIMD(simd)
			prevProcs := sched.SetMaxProcs(procs)
			got := runSeastarUnits(t, g, c.FwdPlan.Units, c.FwdKernel, c.MaterializedFwd,
				&kernels.Bindings{VFeat: vfeat})
			sched.SetMaxProcs(prevProcs)
			tensor.SetSIMD(prevSIMD)
			if len(c.FwdPlan.Units) != 2 || len(got) < 2 {
				t.Fatalf("GAT forward: %d units materializing %d values, want softmax + aggregate with a value each",
					len(c.FwdPlan.Units), len(got))
			}
			sameTensors(t, fmt.Sprintf("VM vs refinterp (simd=%v procs=%d)", simd, procs), got, want)
		}
	}
}

func TestSpecializeGCN(t *testing.T) {
	c, err := exec.CompileInference(gcnDAG(t, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	names := seastarSpecNames(t, c)
	found := false
	for _, n := range names {
		if n == "scaled-gather" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no GCN-shaped scaled-gather among %v", names)
	}

	rng := rand.New(rand.NewSource(62))
	g := graph.PowerLaw(rng, 300, 5).SortByDegree()
	vfeat := map[string]*tensor.Tensor{
		"h":    tensor.Randn(rng, 0.5, 300, 8),
		"norm": tensor.Uniform(rng, 0.2, 1, 300, 1),
	}
	params := map[string]*tensor.Tensor{"W": tensor.Randn(rng, 0.5, 8, 4)}
	checkBitwise(t, c, g, vfeat, nil, params)
}

func TestSpecializeRGCN(t *testing.T) {
	c, err := exec.CompileInference(rgcnDAG(t, 3, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	names := seastarSpecNames(t, c)
	found := false
	for _, n := range names {
		if n == "typed-gather→hier" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no R-GCN typed-gather→hier among %v", names)
	}

	rng := rand.New(rand.NewSource(63))
	g := graph.GNM(rng, 120, 700)
	graph.RandomEdgeTypes(rng, g, 3)
	if err := g.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	g = g.SortByDegree()
	vfeat := map[string]*tensor.Tensor{"h": tensor.Randn(rng, 0.5, 120, 8)}
	efeat := map[string]*tensor.Tensor{"norm": tensor.Uniform(rng, 0.2, 1, g.M, 1)}
	params := map[string]*tensor.Tensor{"W": tensor.Randn(rng, 0.5, 3, 8, 4)}
	checkBitwise(t, c, g, vfeat, efeat, params)
}

// TestSpecializeStep pins the VM's catch-all: a wide elementwise chain
// feeding the aggregation matches no fused term, so it compiles to one
// opStep whose block column the term gathers from — and still computes
// refinterp's values bit for bit, on rows shorter and longer than a block.
func TestSpecializeStep(t *testing.T) {
	b := gir.NewBuilder()
	b.VFeature("h", 8)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").Sigmoid().AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.CompileInference(dag)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range c.FwdPlan.Units {
		if u.Kind != fusion.KindSeastar {
			continue
		}
		if name := c.FwdKernel(u).Specialized(); name != "step[1]+col" {
			t.Fatalf("wide sigmoid chain compiled as %q, want step[1]+col", name)
		}
		rng := rand.New(rand.NewSource(64))
		g := ladderGraph(t, rng, 0)
		vfeat := map[string]*tensor.Tensor{"h": tensor.Randn(rng, 0.5, g.N, 8)}
		checkBitwise(t, c, g, vfeat, nil, nil)
		return
	}
	t.Fatal("plan has no seastar units")
}

// TestSpecializeOpSweep pins every chain opcode's columnar arm: each op
// runs per-edge over block columns — unaries on a per-edge value,
// binaries in all three operand forms (column∘column, scalar∘column,
// column∘scalar) — feeding the SIMD scaled gather, and the scalar
// aggregates exercise the in-program sum fold and the leftover
// max/min/mean terms. Every variant must compile without a step and match
// refinterp bit for bit across SIMD and worker-count variations.
func TestSpecializeOpSweep(t *testing.T) {
	type variant struct {
		name string
		body func(v *gir.Vertex) *gir.Value
	}
	unaries := []struct {
		name string
		f    func(*gir.Value) *gir.Value
	}{
		{"neg", func(x *gir.Value) *gir.Value { return x.Neg() }},
		{"exp", func(x *gir.Value) *gir.Value { return x.Exp() }},
		{"log", func(x *gir.Value) *gir.Value { return x.Log() }},
		{"leakyrelu", func(x *gir.Value) *gir.Value { return x.LeakyReLU(0.1) }},
		{"relu", func(x *gir.Value) *gir.Value { return x.ReLU() }},
		{"sigmoid", func(x *gir.Value) *gir.Value { return x.Sigmoid() }},
		{"tanh", func(x *gir.Value) *gir.Value { return x.Tanh() }},
		{"mulscalar", func(x *gir.Value) *gir.Value { return x.MulScalar(1.5) }},
		{"addscalar", func(x *gir.Value) *gir.Value { return x.AddScalar(0.25) }},
	}
	var variants []variant
	for _, u := range unaries {
		f := u.f
		variants = append(variants, variant{"col-" + u.name, func(v *gir.Vertex) *gir.Value {
			e := v.Nbr("a").Add(v.Self("b"))
			return f(e).Mul(v.Nbr("x")).AggSum()
		}})
	}
	binops := []struct {
		name string
		f    func(a, b *gir.Value) *gir.Value
	}{
		{"add", func(a, b *gir.Value) *gir.Value { return a.Add(b) }},
		{"sub", func(a, b *gir.Value) *gir.Value { return a.Sub(b) }},
		{"mul", func(a, b *gir.Value) *gir.Value { return a.Mul(b) }},
		{"div", func(a, b *gir.Value) *gir.Value { return a.Div(b) }},
	}
	for _, bo := range binops {
		f := bo.f
		variants = append(variants,
			variant{"colcol-" + bo.name, func(v *gir.Vertex) *gir.Value {
				return f(v.Nbr("a"), v.Nbr("b")).Mul(v.Nbr("x")).AggSum()
			}},
			variant{"sccol-" + bo.name, func(v *gir.Vertex) *gir.Value {
				return f(v.Self("a"), v.Nbr("b")).Mul(v.Nbr("x")).AggSum()
			}},
			variant{"colsc-" + bo.name, func(v *gir.Vertex) *gir.Value {
				return f(v.Nbr("a"), v.Self("b")).Mul(v.Nbr("x")).AggSum()
			}})
	}
	variants = append(variants,
		variant{"scalar-aggsum", func(v *gir.Vertex) *gir.Value {
			return v.Nbr("a").Add(v.Self("b")).Exp().AggSum()
		}},
		variant{"scalar-aggmean", func(v *gir.Vertex) *gir.Value {
			return v.Nbr("a").Add(v.Self("b")).AggMean()
		}},
		variant{"scalar-aggmax", func(v *gir.Vertex) *gir.Value {
			return v.Nbr("a").Mul(v.Nbr("b")).AggMax()
		}},
		variant{"scaled-aggmax", func(v *gir.Vertex) *gir.Value {
			return v.Nbr("a").Exp().Mul(v.Nbr("x")).AggMax()
		}},
		variant{"scaled-aggmin", func(v *gir.Vertex) *gir.Value {
			return v.Nbr("a").Exp().Mul(v.Nbr("x")).AggMin()
		}})

	rng := rand.New(rand.NewSource(71))
	g := graph.GNM(rng, 200, 600).SortByDegree()
	vfeat := map[string]*tensor.Tensor{
		// b stays positive so colsc-div's broadcast divisor is finite;
		// log of negative a still produces NaN, which sameBits forgives.
		"a": tensor.Randn(rng, 0.5, 200, 1),
		"b": tensor.Uniform(rng, 0.2, 1, 200, 1),
		"x": tensor.Randn(rng, 0.5, 200, 16),
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			b := gir.NewBuilder()
			b.VFeature("a", 1)
			b.VFeature("b", 1)
			b.VFeature("x", 16)
			dag, err := b.Build(vr.body)
			if err != nil {
				t.Fatal(err)
			}
			c, err := exec.CompileInference(dag)
			if err != nil {
				t.Fatal(err)
			}
			seastarSpecNames(t, c)
			checkBitwise(t, c, g, vfeat, nil, nil)
		})
	}

	// The dot production RowSum(Mul(A,B)) in its three operand forms —
	// row-constant × neighbour leaf, row-constant × edge leaf, neighbour ×
	// edge leaf — feeding a sink-fused scaled gather, the in-program sum
	// fold and a chain + max fold, plus hierarchical blocks cut at type
	// changes. Widths cover the scalar degenerate case, sub-vector, exact
	// vector, the benchmark's 64 and a vector tail; the ladder graph's
	// degrees cover 0, 1 and every remainder of the 4- and 8-edge lockstep;
	// the payloads put NaN, ±Inf and −0 on both sides of the products (a
	// −0 product must still sum to +0: the fold starts from +0).
	dots := []struct {
		name      string
		relations int
		body      func(v *gir.Vertex) *gir.Value
	}{
		{"dot-rownbr", 0, func(v *gir.Vertex) *gir.Value {
			return v.Self("p").Mul(v.Nbr("p")).RowSum().Mul(v.Nbr("x")).AggSum()
		}},
		{"dot-roweid", 0, func(v *gir.Vertex) *gir.Value {
			return v.Self("p").Mul(v.Edge("q")).RowSum().AggSum()
		}},
		{"dot-nbreid", 0, func(v *gir.Vertex) *gir.Value {
			return v.Nbr("p").Mul(v.Edge("q")).RowSum().Tanh().AggMax()
		}},
		{"dot-hier", 3, func(v *gir.Vertex) *gir.Value {
			return v.Self("p").Mul(v.Nbr("p")).RowSum().Mul(v.Edge("q")).AggHier(gir.AggSum, gir.AggSum)
		}},
	}
	negZero := float32(math.Copysign(0, -1))
	payloads := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), negZero, 0}
	for _, w := range []int{1, 3, 8, 64, 65} {
		for _, d := range dots {
			t.Run(fmt.Sprintf("%s-w%d", d.name, w), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(72 + w)))
				g := ladderGraph(t, rng, d.relations)
				p := tensor.Randn(rng, 0.5, g.N, w)
				q := tensor.Randn(rng, 0.5, g.M, w)
				for i, pl := range payloads {
					p.Set1((7*i+3)%p.Size(), pl)
					q.Set1((131*i+17)%q.Size(), pl)
				}
				// Whole rows of −0 products: x·(−0) for x > 0.
				for j := 0; j < w; j++ {
					p.Set1(5*w+j, negZero)
				}
				b := gir.NewBuilder()
				b.VFeature("p", w)
				b.VFeature("x", 16)
				b.EFeature("q", w)
				dag, err := b.Build(d.body)
				if err != nil {
					t.Fatal(err)
				}
				c, err := exec.CompileInference(dag)
				if err != nil {
					t.Fatal(err)
				}
				names := seastarSpecNames(t, c)
				if w > 1 && !strings.HasPrefix(names[0], "dot[1]") {
					t.Fatalf("compiled as %v, want a dot production", names)
				}
				vfeat := map[string]*tensor.Tensor{"p": p, "x": tensor.Randn(rng, 0.5, g.N, 16)}
				checkBitwise(t, c, g, vfeat, map[string]*tensor.Tensor{"q": q}, nil)
			})
		}
	}
}
