package exec

import (
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// gatDAG traces the GAT layer body used for the fusion ablation.
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

// runGAT executes the compiled GAT layer once (forward + backward) and
// returns output, gradients, simulated time and peak memory.
func runGAT(t *testing.T, c *CompiledUDF, g *graph.Graph,
	eu, ev, h *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor, float64, int64) {
	t.Helper()
	dev := device.New(device.GTX1080Ti)
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	euV := e.Param(eu, "eu")
	evV := e.Param(ev, "ev")
	hV := e.Param(h, "h")
	out, err := c.Apply(rt,
		map[string]*nn.Variable{"eu": euV, "ev": evV, "h": hV}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	loss := e.SumAll(e.Sigmoid(out))
	e.Backward(loss)
	return out.Value, hV.Grad, dev.ElapsedNs(), dev.PeakBytes()
}

func TestNoFusionMatchesFusedAndCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := graph.PowerLaw(rng, 3000, 8).SortByDegree()
	eu := tensor.Randn(rng, 0.5, 3000, 1)
	ev := tensor.Randn(rng, 0.5, 3000, 1)
	h := tensor.Randn(rng, 0.5, 3000, 16)

	dagFused := gatDAG(t, 16)
	fused, err := Compile(dagFused)
	if err != nil {
		t.Fatal(err)
	}
	dagUnfused := gatDAG(t, 16)
	unfused, err := CompileWith(dagUnfused, Options{NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(unfused.Fwd.Plan.Units) <= len(fused.Fwd.Plan.Units) {
		t.Fatalf("unfused plan has %d units vs fused %d",
			len(unfused.Fwd.Plan.Units), len(fused.Fwd.Plan.Units))
	}

	outF, gradF, timeF, memF := runGAT(t, fused, g, eu, ev, h)
	outU, gradU, timeU, memU := runGAT(t, unfused, g, eu, ev, h)

	if !tensor.AllClose(outF, outU, 1e-3) {
		t.Fatalf("fusion changed forward values by %g", tensor.MaxAbsDiff(outF, outU))
	}
	if !tensor.AllClose(gradF, gradU, 1e-3) {
		t.Fatalf("fusion changed gradients by %g", tensor.MaxAbsDiff(gradF, gradU))
	}
	// The paper's claim (§2.3, §7): fusion saves both time (fewer
	// kernels, no intermediate traffic) and memory (no materialized
	// edge intermediates).
	if timeF >= timeU {
		t.Errorf("fused time %.0fns should be < unfused %.0fns", timeF, timeU)
	}
	if memF >= memU {
		t.Errorf("fused peak %dB should be < unfused %dB", memF, memU)
	}
}

func TestNoFusionRGCN(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := graph.GNM(rng, 40, 200)
	graph.RandomEdgeTypes(rng, g, 3)
	if err := g.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	build := func() *gir.DAG {
		b := gir.NewBuilder()
		b.VFeature("h", 4)
		b.EFeature("norm", 1)
		Ws := b.Param("W", 3, 4, 2)
		dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
		})
		if err != nil {
			t.Fatal(err)
		}
		return dag
	}
	fused, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := CompileWith(build(), Options{NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	h := tensor.Randn(rng, 0.5, 40, 4)
	norm := tensor.Uniform(rng, 0.3, 1, 200, 1)
	W := tensor.Randn(rng, 0.5, 3, 4, 2)

	run := func(c *CompiledUDF) (*tensor.Tensor, *tensor.Tensor) {
		e := nn.NewEngine(device.New(device.V100))
		rt := NewRuntime(e, g)
		hV := e.Param(h, "h")
		nV := e.Input(norm, "norm")
		wV := e.Param(W, "W")
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"h": hV},
			map[string]*nn.Variable{"norm": nV},
			map[string]*nn.Variable{"W": wV})
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		return out.Value, wV.Grad
	}
	outF, dwF := run(fused)
	outU, dwU := run(unfused)
	if !tensor.AllClose(outF, outU, 1e-4) || !tensor.AllClose(dwF, dwU, 1e-4) {
		t.Fatal("NoFusion changed R-GCN results")
	}
}
