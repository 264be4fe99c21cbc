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

// runGCNOn executes the compiled GCN layer on an arbitrary graph.
func runGCNOn(t *testing.T, g *graph.Graph) *tensor.Tensor {
	t.Helper()
	c := compileGCN(t, 3, 2)
	rng := rand.New(rand.NewSource(71))
	e := nn.NewEngine(device.New(device.V100))
	rt := NewRuntime(e, g)
	h := e.Param(tensor.Randn(rng, 1, g.N, 3), "h")
	norm := e.Input(tensor.Ones(g.N, 1), "norm")
	w := e.Param(tensor.Randn(rng, 1, 3, 2), "W")
	out, err := c.Apply(rt,
		map[string]*nn.Variable{"h": h, "norm": norm}, nil,
		map[string]*nn.Variable{"W": w})
	if err != nil {
		t.Fatal(err)
	}
	e.Backward(e.SumAll(e.Sigmoid(out)))
	if w.Grad == nil {
		t.Fatal("no weight gradient")
	}
	return out.Value
}

func TestEdgelessGraph(t *testing.T) {
	g, err := graph.FromEdges(5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := runGCNOn(t, g.SortByDegree())
	// No in-edges anywhere: every aggregation is zero.
	for i := 0; i < out.Size(); i++ {
		if out.At1(i) != 0 {
			t.Fatalf("edgeless output %v at %d", out.At1(i), i)
		}
	}
}

func TestSingleVertexSelfLoop(t *testing.T) {
	g, err := graph.FromEdges(1, []int32{0}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	out := runGCNOn(t, g)
	if out.Rows() != 1 || out.Cols() != 2 {
		t.Fatalf("shape %v", out.Shape())
	}
}

func TestParallelEdgesCountTwice(t *testing.T) {
	// Two identical edges u→v must contribute twice to the sum.
	g1, _ := graph.FromEdges(2, []int32{0}, []int32{1})
	g2, _ := graph.FromEdges(2, []int32{0, 0}, []int32{1, 1})

	b := gir.NewBuilder()
	b.VFeature("h", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() })
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *graph.Graph) float32 {
		e := nn.NewEngine(device.New(device.V100))
		rt := NewRuntime(e, g)
		h := e.Input(tensor.FromSlice([]float32{3, 0}, 2, 1), "h")
		out, err := c.Apply(rt, map[string]*nn.Variable{"h": h}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Value.At(1, 0)
	}
	if run(g1) != 3 || run(g2) != 6 {
		t.Fatalf("parallel edges: %v, %v", run(g1), run(g2))
	}
}

func TestHugeDegreeSkew(t *testing.T) {
	// A star graph with a 4000-degree hub: the sorted kernel must put
	// the hub first and still produce exact sums.
	g := graph.Star(4001).SortByDegree()
	b := gir.NewBuilder()
	b.VFeature("h", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() })
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	e := nn.NewEngine(device.New(device.V100))
	rt := NewRuntime(e, g)
	h := e.Input(tensor.Ones(4001, 1), "h")
	out, err := c.Apply(rt, map[string]*nn.Variable{"h": h}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.At(0, 0) != 4000 {
		t.Fatalf("hub sum %v", out.Value.At(0, 0))
	}
}

func TestWideFeatures(t *testing.T) {
	// Feature width beyond the block size exercises the ceil(width/gs)
	// path of the FAT groups.
	g := graph.Figure7()
	b := gir.NewBuilder()
	b.VFeature("h", 600)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value { return v.Nbr("h").AggSum() })
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	hT := tensor.Randn(rng, 1, 4, 600)
	e := nn.NewEngine(device.New(device.V100))
	rt := NewRuntime(e, g)
	h := e.Input(hT, "h")
	out, err := c.Apply(rt, map[string]*nn.Variable{"h": h}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Check one coordinate by hand: vertex A sums B, C, D.
	want := hT.At(1, 599) + hT.At(2, 599) + hT.At(3, 599)
	if diff := out.Value.At(0, 599) - want; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("wide feature sum off by %v", diff)
	}
}

// TestLeafGradientContributionsSum: a feature read both as Self and as
// Nbr has two gradient outputs for one input. Backward aliases the first
// and must add the second into a buffer of its own — the result equals
// the two gradients of the same program over two separately named inputs,
// and neither of those is modified.
func TestLeafGradientContributionsSum(t *testing.T) {
	build := func(self, nbr string) *CompiledUDF {
		b := gir.NewBuilder()
		b.VFeature(self, 4)
		if nbr != self {
			b.VFeature(nbr, 4)
		}
		dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
			return v.Nbr(nbr).AggSum().Add(v.Self(self).MulScalar(3))
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
	rng := rand.New(rand.NewSource(5))
	g := graph.PowerLaw(rng, 50, 3).SortByDegree()
	val := tensor.Randn(rng, 1, 50, 4)
	run := func(c *CompiledUDF, keys ...string) []*tensor.Tensor {
		e := nn.NewEngine(device.New(device.V100))
		in := map[string]*nn.Variable{}
		for _, k := range keys {
			in[k] = e.Param(val.Clone(), k)
		}
		out, err := c.Apply(NewRuntime(e, g), in, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		var grads []*tensor.Tensor
		for _, k := range keys {
			grads = append(grads, in[k].Grad)
		}
		return grads
	}
	both := run(build("h", "h"), "h")[0]
	parts := run(build("hs", "hn"), "hs", "hn")
	want := tensor.Add(parts[0], parts[1])
	if tensor.MaxAbsDiff(both, want) > 1e-6 {
		t.Fatalf("summed gradient differs from the sum of its parts by %g", tensor.MaxAbsDiff(both, want))
	}
	if tensor.MaxAbsDiff(parts[0], parts[1]) == 0 {
		t.Fatal("the two contributions are equal: the test cannot tell them apart")
	}
}
