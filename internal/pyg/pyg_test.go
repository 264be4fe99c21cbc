package pyg

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

func TestGatherScatterRoundTrip(t *testing.T) {
	g := graph.Figure7()
	p, _ := newEngine(g)
	h := p.E.Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1), "h")
	e := p.GatherSrc(h)
	if e.Value.Rows() != g.M || e.Value.At(0, 0) != 2 { // edge 0 src B
		t.Fatalf("gather: %v", e.Value)
	}
	out := p.ScatterAddDst(e)
	want := tensor.FromSlice([]float32{9, 4, 4, 2}, 4, 1)
	if !tensor.AllClose(out.Value, want, 1e-6) {
		t.Fatalf("scatter: %v", out.Value)
	}
	p.E.Backward(p.E.SumAll(out))
	// dh[u] = out-degree(u), through gather-backward ∘ scatter-backward.
	wantG := tensor.FromSlice([]float32{1, 2, 2, 2}, 4, 1)
	if !tensor.AllClose(h.Grad, wantG, 1e-6) {
		t.Fatalf("grad: %v", h.Grad)
	}
}

func TestGatherDstBackward(t *testing.T) {
	g := graph.Figure7()
	p, _ := newEngine(g)
	h := p.E.Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4, 1), "h")
	e := p.GatherDst(h)
	if e.Value.At(0, 0) != 1 { // edge 0 dst A
		t.Fatalf("gather dst: %v", e.Value)
	}
	p.E.Backward(p.E.SumAll(e))
	inDeg := g.InDegrees()
	for v := 0; v < 4; v++ {
		if h.Grad.At(v, 0) != float32(inDeg[v]) {
			t.Fatalf("grad[%d] = %v, want %d", v, h.Grad.At(v, 0), inDeg[v])
		}
	}
}

func TestEdgeSoftmaxMatchesDGLSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.GNM(rng, 9, 30)
	eT := tensor.Randn(rng, 1, 30, 1)
	p, _ := newEngine(g)
	a := p.EdgeSoftmax(p.E.Input(eT, "e"))
	sums := make([]float32, 9)
	for eid := 0; eid < g.M; eid++ {
		sums[g.Dsts[eid]] += a.Value.At(eid, 0)
	}
	for v := 0; v < 9; v++ {
		if g.InDegrees()[v] > 0 && math.Abs(float64(sums[v])-1) > 1e-4 {
			t.Fatalf("softmax sums at %d: %v", v, sums[v])
		}
	}
}

func TestEdgeSoftmaxGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GNM(rng, 6, 14)
	eT := tensor.Randn(rng, 0.5, 14, 1)
	loss := func(grad bool) (float32, *tensor.Tensor) {
		p, _ := newEngine(g)
		e := p.E.Param(eT, "e")
		a := p.EdgeSoftmax(e)
		l := p.E.SumAll(p.E.Mul(a, a))
		if grad {
			p.E.Backward(l)
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
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, a, num)
		}
	}
}

func TestPyGUsesMoreMemoryThanFusedReduce(t *testing.T) {
	// The §2.3 claim: scatter/gather materializes per-edge tensors, so
	// its peak memory grows with M while a fused reduction's does not.
	rng := rand.New(rand.NewSource(43))
	g := graph.GNM(rng, 100, 3000)
	hT := tensor.Randn(rng, 1, 100, 32)

	p, dev := newEngine(g)
	base := dev.PeakBytes()
	h := p.E.Param(hT, "h")
	out := p.ScatterAddDst(p.GatherSrc(h))
	p.E.Backward(p.E.SumAll(out))
	peak := dev.PeakBytes() - base
	edgeBytes := int64(g.M) * 32 * 4
	if peak < edgeBytes {
		t.Fatalf("PyG peak %d should exceed one edge tensor (%d)", peak, edgeBytes)
	}
}

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

func TestRGCNVariantsMatchNaiveAndEachOther(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := graph.GNM(rng, 12, 50)
	graph.RandomEdgeTypes(rng, g, 4)
	hT := tensor.Randn(rng, 0.5, 12, 3)
	wsT := tensor.Randn(rng, 0.5, 4, 3, 2)
	normT := tensor.Uniform(rng, 0.3, 1, 50, 1)
	want := naiveRGCN(g, hT, wsT, normT)

	type result struct{ out, dh, dw *tensor.Tensor }
	run := func(variant string) result {
		p, _ := newEngine(g)
		h := p.E.Param(hT, "h")
		ws := p.E.Param(wsT, "ws")
		norm := p.E.Input(normT, "norm")
		var out *nn.Variable
		var err error
		if variant == "loop" {
			out, err = p.RGCNLoop(h, ws, norm)
		} else {
			out, err = p.RGCNBMM(h, ws, norm)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.E.Backward(p.E.SumAll(p.E.Sigmoid(out)))
		return result{out.Value, h.Grad, ws.Grad}
	}
	l, b := run("loop"), run("bmm")
	if !tensor.AllClose(l.out, want, 1e-4) || !tensor.AllClose(b.out, want, 1e-4) {
		t.Fatal("RGCN forward mismatch vs naive")
	}
	if !tensor.AllClose(l.dh, b.dh, 1e-4) || !tensor.AllClose(l.dw, b.dw, 1e-4) {
		t.Fatal("RGCN gradients diverge between variants")
	}
}

func TestRGCNRequiresEdgeTypes(t *testing.T) {
	g := graph.Figure7()
	p, _ := newEngine(g)
	h := p.E.Param(tensor.New(4, 2), "h")
	ws := p.E.Param(tensor.New(2, 2, 2), "ws")
	norm := p.E.Input(tensor.New(7, 1), "norm")
	if _, err := p.RGCNLoop(h, ws, norm); err == nil {
		t.Fatal("loop without types accepted")
	}
	if _, err := p.RGCNBMM(h, ws, norm); err == nil {
		t.Fatal("bmm without types accepted")
	}
}
