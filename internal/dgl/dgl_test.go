package dgl

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

func newEngine(g *graph.Graph) (*Engine, *device.Device) {
	dev := device.New(device.V100)
	return New(nn.NewEngine(dev), g), dev
}

func TestUpdateAllCopySumForwardBackward(t *testing.T) {
	g := graph.Figure7()
	d, _ := newEngine(g)
	h := d.E.Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1), "h")
	out := d.UpdateAllCopySum(h)
	want := tensor.FromSlice([]float32{9, 4, 4, 2}, 4, 1)
	if !tensor.AllClose(out.Value, want, 1e-6) {
		t.Fatalf("forward: %v", out.Value)
	}
	d.E.Backward(d.E.SumAll(out))
	// d out[v] / d h[u] = #edges u→v; dloss/dh[u] = out-degree(u).
	wantG := tensor.FromSlice([]float32{1, 2, 2, 2}, 4, 1)
	if !tensor.AllClose(h.Grad, wantG, 1e-6) {
		t.Fatalf("backward: %v", h.Grad)
	}
}

func TestUpdateAllUMulESumGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.GNM(rng, 8, 20)
	hT := tensor.Randn(rng, 0.5, 8, 3)
	eT := tensor.Randn(rng, 0.5, 20, 1)

	loss := func(grad bool) (float32, *tensor.Tensor, *tensor.Tensor) {
		d, _ := newEngine(g)
		h := d.E.Param(hT, "h")
		e := d.E.Param(eT, "e")
		out := d.UpdateAllUMulESum(h, e)
		l := d.E.SumAll(d.E.Sigmoid(out))
		if grad {
			d.E.Backward(l)
		}
		return l.Value.At1(0), h.Grad, e.Grad
	}
	_, dh, de := loss(true)

	const eps = 1e-2
	for name, target := range map[string]*tensor.Tensor{"h": hT, "e": eT} {
		analytic := dh
		if name == "e" {
			analytic = de
		}
		for i := 0; i < target.Size(); i++ {
			orig := target.At1(i)
			target.Set1(i, orig+eps)
			up, _, _ := loss(false)
			target.Set1(i, orig-eps)
			down, _, _ := loss(false)
			target.Set1(i, orig)
			num := float64((up - down) / (2 * eps))
			a := float64(analytic.At1(i))
			if math.Abs(a-num)/(math.Max(math.Abs(a), math.Abs(num))+1e-3) > 0.12 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", name, i, a, num)
			}
		}
	}
}

func TestApplyEdgesUAddVBackward(t *testing.T) {
	g := graph.Figure7()
	d, _ := newEngine(g)
	a := d.E.Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1), "a")
	b := d.E.Param(tensor.FromSlice([]float32{10, 20, 30, 40}, 4, 1), "b")
	e := d.ApplyEdgesUAddV(a, b)
	if e.Value.Rows() != g.M {
		t.Fatal("edge tensor shape")
	}
	d.E.Backward(d.E.SumAll(e))
	// da[u] = out-degree(u); db[v] = in-degree(v).
	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	for v := 0; v < 4; v++ {
		if a.Grad.At(v, 0) != float32(outDeg[v]) || b.Grad.At(v, 0) != float32(inDeg[v]) {
			t.Fatalf("grads at %d: %v %v", v, a.Grad.At(v, 0), b.Grad.At(v, 0))
		}
	}
}

func TestEdgeSoftmaxMatchesPerDstSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.GNM(rng, 10, 40)
	eT := tensor.Randn(rng, 1, 40, 1)
	d, _ := newEngine(g)
	e := d.E.Input(eT, "e")
	a := d.EdgeSoftmax(e)
	// Per destination, weights must sum to 1 and be proportional to exp.
	sums := make([]float32, 10)
	for eid := 0; eid < g.M; eid++ {
		sums[g.Dsts[eid]] += a.Value.At(eid, 0)
	}
	for v := 0; v < 10; v++ {
		if in := int(g.InDegrees()[v]); in > 0 {
			if math.Abs(float64(sums[v])-1) > 1e-4 {
				t.Fatalf("softmax at %d sums to %v", v, sums[v])
			}
		}
	}
}

func TestEdgeSoftmaxGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := graph.GNM(rng, 6, 14)
	eT := tensor.Randn(rng, 0.5, 14, 1)
	loss := func(grad bool) (float32, *tensor.Tensor) {
		d, _ := newEngine(g)
		e := d.E.Param(eT, "e")
		a := d.EdgeSoftmax(e)
		l := d.E.SumAll(d.E.Mul(a, a)) // nonlinear reduction
		if grad {
			d.E.Backward(l)
		}
		return l.Value.At1(0), e.Grad
	}
	_, de := loss(true)
	const eps = 1e-2
	for i := 0; i < eT.Size(); i++ {
		orig := eT.At1(i)
		eT.Set1(i, orig+eps)
		up, _ := loss(false)
		eT.Set1(i, orig-eps)
		down, _ := loss(false)
		eT.Set1(i, orig)
		num := float64((up - down) / (2 * eps))
		a := float64(de.At1(i))
		if math.Abs(a-num)/(math.Max(math.Abs(a), math.Abs(num))+1e-3) > 0.12 {
			t.Fatalf("softmax grad[%d]: analytic %v numeric %v", i, a, num)
		}
	}
}

// naiveRGCN computes Σ_r Σ_{u∈N_r(v)} norm_e (h[u] @ W_r) directly.
func naiveRGCN(g *graph.Graph, h, ws, norm *tensor.Tensor) *tensor.Tensor {
	din, dout := ws.Shape()[1], ws.Shape()[2]
	out := tensor.New(g.N, dout)
	for e := 0; e < g.M; e++ {
		src, dst := int(g.Srcs[e]), int(g.Dsts[e])
		base := int(g.EdgeTypes[e]) * din * dout
		nv := norm.At(e, 0)
		hr, or := h.Row(src), out.Row(dst)
		for o := 0; o < dout; o++ {
			var s float32
			for i := 0; i < din; i++ {
				s += hr[i] * ws.Data()[base+i*dout+o]
			}
			or[o] += nv * s
		}
	}
	return out
}

func heteroFixture(t *testing.T, rng *rand.Rand) (*graph.Graph, *tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	g := graph.GNM(rng, 12, 50)
	graph.RandomEdgeTypes(rng, g, 4)
	h := tensor.Randn(rng, 0.5, 12, 3)
	ws := tensor.Randn(rng, 0.5, 4, 3, 2)
	norm := tensor.Uniform(rng, 0.3, 1, 50, 1)
	return g, h, ws, norm
}

func TestRGCNLoopAndBMMMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g, hT, wsT, normT := heteroFixture(t, rng)
	want := naiveRGCN(g, hT, wsT, normT)

	for _, variant := range []string{"loop", "bmm"} {
		d, _ := newEngine(g)
		h := d.E.Param(hT, "h")
		ws := d.E.Param(wsT, "ws")
		norm := d.E.Input(normT, "norm")
		var out *nn.Variable
		var err error
		if variant == "loop" {
			out, err = d.RGCNLoop(h, ws, norm)
		} else {
			out, err = d.RGCNBMM(h, ws, norm)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(out.Value, want, 1e-4) {
			t.Fatalf("%s forward mismatch: %g", variant, tensor.MaxAbsDiff(out.Value, want))
		}
	}
}

func TestRGCNVariantsAgreeOnGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g, hT, wsT, normT := heteroFixture(t, rng)
	grads := func(variant string) (*tensor.Tensor, *tensor.Tensor) {
		d, _ := newEngine(g)
		h := d.E.Param(hT, "h")
		ws := d.E.Param(wsT, "ws")
		norm := d.E.Input(normT, "norm")
		var out *nn.Variable
		var err error
		if variant == "loop" {
			out, err = d.RGCNLoop(h, ws, norm)
		} else {
			out, err = d.RGCNBMM(h, ws, norm)
		}
		if err != nil {
			t.Fatal(err)
		}
		d.E.Backward(d.E.SumAll(d.E.Sigmoid(out)))
		return h.Grad, ws.Grad
	}
	dh1, dw1 := grads("loop")
	dh2, dw2 := grads("bmm")
	if !tensor.AllClose(dh1, dh2, 1e-4) || !tensor.AllClose(dw1, dw2, 1e-4) {
		t.Fatal("loop and bmm gradients diverge")
	}
}

func TestRGCNLoopSlowerThanBMM(t *testing.T) {
	// Table 3's headline: the per-relation loop is orders of magnitude
	// slower than the batched variant.
	rng := rand.New(rand.NewSource(36))
	g := graph.GNM(rng, 200, 2000)
	graph.RandomEdgeTypes(rng, g, 30)
	hT := tensor.Randn(rng, 0.5, 200, 8)
	wsT := tensor.Randn(rng, 0.5, 30, 8, 8)
	normT := tensor.Uniform(rng, 0.3, 1, 2000, 1)

	run := func(variant string) float64 {
		d, dev := newEngine(g)
		h := d.E.Param(hT, "h")
		ws := d.E.Param(wsT, "ws")
		norm := d.E.Input(normT, "norm")
		var out *nn.Variable
		var err error
		if variant == "loop" {
			out, err = d.RGCNLoop(h, ws, norm)
		} else {
			out, err = d.RGCNBMM(h, ws, norm)
		}
		if err != nil {
			t.Fatal(err)
		}
		d.E.Backward(d.E.SumAll(out))
		return dev.ElapsedNs()
	}
	loop, bmm := run("loop"), run("bmm")
	if loop < 10*bmm {
		t.Fatalf("loop (%v ns) should be ≫ bmm (%v ns)", loop, bmm)
	}
}

func TestRGCNRequiresEdgeTypes(t *testing.T) {
	g := graph.Figure7()
	d, _ := newEngine(g)
	h := d.E.Param(tensor.New(4, 2), "h")
	ws := d.E.Param(tensor.New(2, 2, 2), "ws")
	norm := d.E.Input(tensor.New(7, 1), "norm")
	if _, err := d.RGCNLoop(h, ws, norm); err == nil {
		t.Fatal("RGCNLoop without edge types accepted")
	}
	if _, err := d.RGCNBMM(h, ws, norm); err == nil {
		t.Fatal("RGCNBMM without edge types accepted")
	}
}
