package exec

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

func compileGCN(t *testing.T, in, out int) *CompiledUDF {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("h", in)
	b.VFeature("norm", 1)
	W := b.Param("W", in, out)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func compileGAT(t *testing.T, dim int) *CompiledUDF {
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
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scalarLoss runs the UDF and reduces the output through a nonlinearity so
// gradients are non-trivial.
func scalarLoss(t *testing.T, c *CompiledUDF, g *graph.Graph, dev *device.Device,
	feats map[string]*tensor.Tensor, params map[string]*tensor.Tensor,
	wantGrads bool) (float32, map[string]*tensor.Tensor) {
	t.Helper()
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	vf := map[string]*nn.Variable{}
	gradVars := map[string]*nn.Variable{}
	for k, tt := range feats {
		v := e.Param(tt, k) // Param so features get gradients
		vf[k] = v
		gradVars[k] = v
	}
	pv := map[string]*nn.Variable{}
	for k, tt := range params {
		v := e.Param(tt, k)
		pv[k] = v
		gradVars[k] = v
	}
	out, err := c.Apply(rt, vf, nil, pv)
	if err != nil {
		t.Fatal(err)
	}
	loss := e.SumAll(e.Sigmoid(out))
	if wantGrads {
		e.Backward(loss)
	}
	grads := map[string]*tensor.Tensor{}
	for k, v := range gradVars {
		if v.Grad != nil {
			grads[k] = v.Grad
		}
	}
	return loss.Value.At1(0), grads
}

func numGrad(t *testing.T, c *CompiledUDF, g *graph.Graph,
	feats, params map[string]*tensor.Tensor, target *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	const eps = 1e-2
	out := tensor.New(target.Shape()...)
	for i := 0; i < target.Size(); i++ {
		orig := target.At1(i)
		target.Set1(i, orig+eps)
		up, _ := scalarLoss(t, c, g, device.New(device.V100), feats, params, false)
		target.Set1(i, orig-eps)
		down, _ := scalarLoss(t, c, g, device.New(device.V100), feats, params, false)
		target.Set1(i, orig)
		out.Set1(i, (up-down)/(2*eps))
	}
	return out
}

func checkGrads(t *testing.T, name string, analytic, numeric *tensor.Tensor) {
	t.Helper()
	if analytic == nil {
		t.Fatalf("%s: no gradient", name)
	}
	for i := 0; i < analytic.Size(); i++ {
		a, n := float64(analytic.At1(i)), float64(numeric.At1(i))
		diff := math.Abs(a - n)
		scale := math.Max(math.Abs(a), math.Abs(n)) + 1e-3
		if diff/scale > 0.15 {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v", name, i, a, n)
		}
	}
}

func TestGCNEndToEndGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.GNM(rng, 12, 40).SortByDegree()
	c := compileGCN(t, 3, 2)
	feats := map[string]*tensor.Tensor{
		"h":    tensor.Randn(rng, 0.5, 12, 3),
		"norm": tensor.Uniform(rng, 0.2, 1, 12, 1),
	}
	params := map[string]*tensor.Tensor{"W": tensor.Randn(rng, 0.5, 3, 2)}
	_, grads := scalarLoss(t, c, g, device.New(device.V100), feats, params, true)

	for _, key := range []string{"W", "h", "norm"} {
		var target *tensor.Tensor
		if key == "W" {
			target = params[key]
		} else {
			target = feats[key]
		}
		numeric := numGrad(t, c, g, feats, params, target)
		checkGrads(t, "gcn."+key, grads[key], numeric)
	}
}

func TestGATEndToEndGradcheck(t *testing.T) {
	// Keep the attention logits away from the LeakyReLU kink so central
	// differences are valid; run once in the positive branch and once in
	// the negative branch to cover both slopes.
	for name, lo, hi := "positive", 0.2, 1.0; ; name, lo, hi = "negative", -1.0, -0.2 {
		rng := rand.New(rand.NewSource(22))
		g := graph.GNM(rng, 10, 30).SortByDegree()
		c := compileGAT(t, 3)
		feats := map[string]*tensor.Tensor{
			"eu": tensor.Uniform(rng, lo, hi, 10, 1),
			"ev": tensor.Uniform(rng, lo, hi, 10, 1),
			"h":  tensor.Randn(rng, 0.5, 10, 3),
		}
		_, grads := scalarLoss(t, c, g, device.New(device.V100), feats, nil, true)
		for _, key := range []string{"eu", "ev", "h"} {
			numeric := numGrad(t, c, g, feats, nil, feats[key])
			checkGrads(t, "gat."+name+"."+key, grads[key], numeric)
		}
		if name == "negative" {
			break
		}
	}
}

func TestRGCNEndToEndGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.GNM(rng, 10, 36)
	graph.RandomEdgeTypes(rng, g, 3)
	if err := g.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	b := gir.NewBuilder()
	b.VFeature("h", 3)
	b.EFeature("norm", 1)
	Ws := b.Param("W", 3, 3, 2)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	hT := tensor.Randn(rng, 0.5, 10, 3)
	normT := tensor.Uniform(rng, 0.2, 1, 36, 1)
	wT := tensor.Randn(rng, 0.5, 3, 3, 2)

	run := func(wantGrads bool) (float32, map[string]*tensor.Tensor) {
		e := nn.NewEngine(device.New(device.V100))
		rt := NewRuntime(e, g)
		h := e.Param(hT, "h")
		norm := e.Param(normT, "norm")
		w := e.Param(wT, "W")
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"h": h},
			map[string]*nn.Variable{"norm": norm},
			map[string]*nn.Variable{"W": w})
		if err != nil {
			t.Fatal(err)
		}
		loss := e.SumAll(e.Sigmoid(out))
		if wantGrads {
			e.Backward(loss)
		}
		return loss.Value.At1(0), map[string]*tensor.Tensor{
			"h": h.Grad, "W": w.Grad, "norm": norm.Grad,
		}
	}
	_, grads := run(true)

	const eps = 1e-2
	for name, target := range map[string]*tensor.Tensor{"h": hT, "W": wT, "norm": normT} {
		numeric := tensor.New(target.Shape()...)
		for i := 0; i < target.Size(); i++ {
			orig := target.At1(i)
			target.Set1(i, orig+eps)
			up, _ := run(false)
			target.Set1(i, orig-eps)
			down, _ := run(false)
			target.Set1(i, orig)
			numeric.Set1(i, (up-down)/(2*eps))
		}
		checkGrads(t, "rgcn."+name, grads[name], numeric)
	}
}

func TestRequiresGradPruningSkipsBackwardUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := graph.GNM(rng, 20, 60).SortByDegree()
	c := compileGCN(t, 4, 2)

	run := func(featGrad bool) device.Stats {
		dev := device.New(device.V100)
		e := nn.NewEngine(dev)
		rt := NewRuntime(e, g)
		var h, norm *nn.Variable
		if featGrad {
			h = e.Param(tensor.Randn(rng, 1, 20, 4), "h")
			norm = e.Param(tensor.Ones(20, 1), "norm")
		} else {
			h = e.Input(tensor.Randn(rng, 1, 20, 4), "h")
			norm = e.Input(tensor.Ones(20, 1), "norm")
		}
		w := e.Param(tensor.Randn(rng, 1, 4, 2), "W")
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"h": h, "norm": norm}, nil,
			map[string]*nn.Variable{"W": w})
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		if w.Grad == nil {
			t.Fatal("weight gradient missing")
		}
		if !featGrad && (h.Grad != nil || norm.Grad != nil) {
			t.Fatal("non-differentiable inputs received gradients")
		}
		return dev.Stats()
	}
	full := run(true)
	pruned := run(false)
	if pruned.Kernels >= full.Kernels {
		t.Fatalf("requires-grad pruning did not skip kernels: %d vs %d",
			pruned.Kernels, full.Kernels)
	}
}

func TestApplyMissingInputErrors(t *testing.T) {
	c := compileGCN(t, 3, 2)
	g := graph.Figure7()
	e := nn.NewEngine(nil)
	rt := NewRuntime(e, g)
	_, err := c.Apply(rt, map[string]*nn.Variable{}, nil, map[string]*nn.Variable{})
	if err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestCompiledReusableAcrossIterations(t *testing.T) {
	// Trace once, run many times (the paper caches the compiled program).
	rng := rand.New(rand.NewSource(25))
	g := graph.GNM(rng, 15, 50).SortByDegree()
	c := compileGCN(t, 3, 2)
	dev := device.New(device.V100)
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	h := e.Input(tensor.Randn(rng, 1, 15, 3), "h")
	norm := e.Input(tensor.Ones(15, 1), "norm")
	w := e.Param(tensor.Randn(rng, 1, 3, 2), "W")
	opt := nn.NewSGD([]*nn.Variable{w}, 0.05)
	var first, last float32
	for it := 0; it < 5; it++ {
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"h": h, "norm": norm}, nil,
			map[string]*nn.Variable{"W": w})
		if err != nil {
			t.Fatal(err)
		}
		loss := e.SumAll(e.Sigmoid(out))
		if it == 0 {
			first = loss.Value.At1(0)
		}
		last = loss.Value.At1(0)
		e.Backward(loss)
		opt.Step()
		e.EndIteration()
	}
	if last >= first {
		t.Fatalf("training did not reduce the objective: %v -> %v", first, last)
	}
	if dev.CurrentBytes() == 0 {
		t.Fatal("params should remain resident")
	}
}

func TestMemoryFreedBetweenIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	g := graph.GNM(rng, 30, 120).SortByDegree()
	c := compileGAT(t, 8)
	dev := device.New(device.V100)
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	eu := e.Param(tensor.Randn(rng, 1, 30, 1), "eu")
	ev := e.Param(tensor.Randn(rng, 1, 30, 1), "ev")
	h := e.Param(tensor.Randn(rng, 1, 30, 8), "h")
	baseline := dev.CurrentBytes()
	for it := 0; it < 3; it++ {
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"eu": eu, "ev": ev, "h": h}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		eu.ZeroGrad()
		ev.ZeroGrad()
		h.ZeroGrad()
		e.EndIteration()
		// Gradients stay allocated (they're parameter state) but all
		// iteration-scoped tensors must be gone.
		if got := dev.CurrentBytes(); got > baseline+3*(30*1+30*1+30*8)*4 {
			t.Fatalf("iteration %d leaked device memory: %d > %d", it, got, baseline)
		}
	}
}

func TestInputKindString(t *testing.T) {
	if InVFeat.String() != "vfeat" || InEFeat.String() != "efeat" ||
		InParam.String() != "param" || InputKind(7).String() == "" {
		t.Fatal("InputKind strings")
	}
}

func TestCompiledUDFReusableAcrossGraphs(t *testing.T) {
	// One compiled program, many graphs (the mini-batch pattern): the
	// kernels must be graph-agnostic.
	c := compileGCN(t, 3, 2)
	if len(c.saved) == 0 {
		t.Fatal("GCN backward saves no forward values?")
	}
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{5, 17, 40} {
		g := graph.GNM(rng, n, n*2).SortByDegree()
		e := nn.NewEngine(device.New(device.V100))
		rt := NewRuntime(e, g)
		h := e.Input(tensor.Randn(rng, 1, n, 3), "h")
		norm := e.Input(tensor.Ones(n, 1), "norm")
		w := e.Param(tensor.Randn(rng, 1, 3, 2), "W")
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"h": h, "norm": norm}, nil,
			map[string]*nn.Variable{"W": w})
		if err != nil {
			t.Fatal(err)
		}
		if out.Value.Rows() != n {
			t.Fatalf("n=%d: output rows %d", n, out.Value.Rows())
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		if w.Grad == nil {
			t.Fatalf("n=%d: no gradient", n)
		}
	}
}
