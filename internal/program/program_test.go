package program

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// TestGCNNorm holds the per-vertex normalizers to their formulas: 1/in-
// degree, 1/√out-degree, 1/√in-degree, and 0 for a vertex without the
// degree.
func TestGCNNorm(t *testing.T) {
	g := datasets.MustLoad("cora", 0.05, 3).G
	in, out := g.InDegrees(), g.OutDegrees()
	for _, tc := range []struct {
		n   Norm
		deg []int32
		f   func(d float64) float64
	}{
		{NormInDeg, in, func(d float64) float64 { return 1 / d }},
		{NormSymSrc, out, func(d float64) float64 { return 1 / math.Sqrt(d) }},
		{NormSymDst, in, func(d float64) float64 { return 1 / math.Sqrt(d) }},
	} {
		norm := tc.n.Of(g, tensor.New)
		for v, d := range tc.deg {
			got := float64(norm.At(v, 0))
			if d == 0 && got != 0 || d > 0 && math.Abs(got-tc.f(float64(d))) > 1e-6 {
				t.Fatalf("norm %d of vertex %d = %v at degree %d", tc.n, v, got, d)
			}
		}
	}
}

// inPlanGCN is GCN as the paper's Figure 3 writes it: the matmul traced
// inside the vertex program, Nbr(h).MatMul(W), instead of hoisted ahead
// of it as the table's GCN is; bias and activation follow as in the
// table. Same weights, same draw order.
func inPlanGCN(s Spec, in int) *Program {
	p := GCN(s, in, 1)
	for i := range p.Stages {
		st := &p.Stages[i]
		width, l, act := in, "1", (*gir.Value).Sigmoid
		if i == 1 {
			width, l, act = s.Hidden, "2", nil
		}
		st.Dense = nil
		st.Plan = &Plan{Trace: func() (*gir.DAG, error) {
			b := gir.NewBuilder()
			b.VFeature("h", width)
			b.VFeature("norm", 1)
			W := b.Param("W", p.weight("W"+l).Shape...)
			bias := b.Param("b", p.weight("b"+l).Shape...)
			return b.Build(func(v *gir.Vertex) *gir.Value {
				return tail(v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum().Add(bias), act)
			})
		}}
		st.Values = []Bind{{"h", ""}}
		st.Params = []Bind{{"W", "W" + l}, {"b", "b" + l}}
	}
	return p
}

// TestHoistedGCNMatchesInPlanMatMul checks the table's hoisting claim on
// the training side: GCN with h·W as a dense op before the plan computes
// the logits of GCN with the matmul inside the plan bit for bit, and the
// same weight gradients, in both SIMD modes. The graph is large enough
// that the first layer's products take the blocked GEMM.
func TestHoistedGCNMatchesInPlanMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ZipfDegree(rng, 600, 6, 1.0).SortByDegree()
	feat := tensor.Randn(rng, 1, g.N, 48)
	labels := make([]int, g.N)
	mask := make([]bool, g.N)
	for v := range labels {
		labels[v], mask[v] = rng.Intn(5), v%3 == 0
	}
	spec := Spec{Hidden: 32, Classes: 5}
	run := func(p *Program) (*tensor.Tensor, []*tensor.Tensor) {
		e := nn.NewEngine(nil)
		w := p.Draw(e, rand.New(rand.NewSource(9)))
		net, err := Lower(p, w)
		if err != nil {
			t.Fatal(err)
		}
		norms := p.NormInputs(e, g)
		out, err := net.Forward(exec.NewRuntime(e, g), e.Input(feat, "x"), &norms)
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.CrossEntropyMasked(out, labels, mask))
		var grads []*tensor.Tensor
		for _, v := range p.Params(w) {
			grads = append(grads, v.Grad)
		}
		return out.Value.Clone(), grads
	}
	for _, simd := range []bool{true, false} {
		prev := tensor.SetSIMD(simd)
		hoisted, hg := run(GCN(spec, feat.Cols(), 1))
		inPlan, ig := run(inPlanGCN(spec, feat.Cols()))
		tensor.SetSIMD(prev)
		if !sameBits(hoisted, inPlan) {
			t.Errorf("simd=%v: hoisted logits differ from the in-plan matmul's by %g", simd, tensor.MaxAbsDiff(hoisted, inPlan))
		}
		for i, name := range []string{"W1", "b1", "W2", "b2"} {
			if !sameBits(hg[i], ig[i]) {
				t.Errorf("simd=%v: %s gradient differs by %g", simd, name, tensor.MaxAbsDiff(hg[i], ig[i]))
			}
		}
	}
}

// TestDepth counts aggregating stages: a dense-only stage (here a
// closing MLP after GCN's two layers) is no hop, and each APPNP step is
// one.
func TestDepth(t *testing.T) {
	s := Spec{Hidden: 8, Classes: 3, K: 4}
	mlp := GCN(s, 5, 1)
	mlp.Stages = append(mlp.Stages, Stage{Dense: []Dense{{Out: "out", W: "W2"}}})
	for _, tc := range []struct {
		name string
		p    *Program
		want int
	}{
		{"gcn", GCN(s, 5, 1), 2},
		{"gat", GAT(s, 5, 1), 2},
		{"appnp", APPNP(s, 5, 1), 4},
		{"rgcn", RGCN(s, 5, 2), 2},
		{"gcn+mlp", mlp, 2},
		{"minibatch-sage", MiniBatchSAGE(5, 3), 1},
	} {
		if got := tc.p.Depth(); got != tc.want {
			t.Errorf("%s: depth %d, want %d", tc.name, got, tc.want)
		}
	}
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, x := range a.Data() {
		if math.Float32bits(x) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
