package seastar_test

import (
	"math/rand"
	"strings"
	"testing"

	"seastar"
	"seastar/internal/kernels"
	"seastar/internal/tensor"
)

// newSessionWithGraph builds a session over a small random graph.
func newSessionWithGraph(t *testing.T, n, m int) (*seastar.Session, *seastar.Graph) {
	t.Helper()
	sess, err := seastar.NewSession(seastar.WithGPU("V100"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	for i := range srcs {
		srcs[i] = int32(rng.Intn(n))
		dsts[i] = int32(rng.Intn(n))
	}
	g, err := seastar.FromEdges(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetGraph(g); err != nil {
		t.Fatal(err)
	}
	return sess, g
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sess, _ := newSessionWithGraph(t, 30, 120)
	prog, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
		b.VFeature("h", 8)
		W := b.Param("W", 8, 4)
		return func(v *seastar.Vertex) *seastar.Value {
			return v.Nbr("h").MatMul(W).AggSum()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	h := sess.Input(tensor.Randn(rng, 1, 30, 8), "h")
	w := sess.Param(tensor.XavierUniform(rng, 8, 4), "W")
	out, err := prog.Apply(
		map[string]*seastar.Variable{"h": h}, nil,
		map[string]*seastar.Variable{"W": w})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.Rows() != 30 || out.Value.Cols() != 4 {
		t.Fatalf("output shape %v", out.Value.Shape())
	}
	// Train one step through the public optimizer.
	loss := sess.Engine.SumAll(sess.Engine.Sigmoid(out))
	sess.Engine.Backward(loss)
	if w.Grad == nil {
		t.Fatal("no gradient through the public API")
	}
	opt := seastar.NewAdam([]*seastar.Variable{w}, 0.01)
	opt.Step()
	sess.EndIteration()
	if sess.Dev.Elapsed() <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

// TestGrammarOps writes the Value ops no other public-API test uses, under
// the full kernel strategy and Figure 12's Basic one. With h all ones each
// vertex gets -Σ_{u∈N(v)} rowsum(h_u), minus 4 per in-edge, so the
// outputs sum to -4·m.
func TestGrammarOps(t *testing.T) {
	sess, _ := newSessionWithGraph(t, 30, 120)
	prog, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
		b.VFeature("h", 4)
		return func(v *seastar.Vertex) *seastar.Value { return v.Nbr("h").RowSum().Neg().AggSum() }
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []kernels.Config{kernels.DefaultConfig(), {}} {
		if err := sess.KernelConfig(cfg); err != nil {
			t.Fatal(err)
		}
		out, err := prog.Apply(map[string]*seastar.Variable{"h": sess.Input(tensor.Ones(30, 4), "h")}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum float32
		for _, x := range out.Value.Data() {
			sum += x
		}
		if sum != -4*120 {
			t.Fatalf("%+v: outputs sum to %v, want %v", cfg, sum, -4*120)
		}
	}
}

func TestSessionOptionValidation(t *testing.T) {
	if _, err := seastar.NewSession(seastar.WithGPU("H100")); err == nil {
		t.Fatal("unknown GPU accepted")
	}
	if _, err := seastar.NewSession(seastar.WithWorkScale(0)); err == nil {
		t.Fatal("zero work scale accepted")
	}
	if _, err := seastar.NewSession(seastar.WithWorkScale(0.5)); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	sess, _ := newSessionWithGraph(t, 5, 10)
	_, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
		return func(v *seastar.Vertex) *seastar.Value {
			return v.Nbr("unregistered").AggSum()
		}
	})
	if err == nil {
		t.Fatal("trace error not surfaced")
	}
}

func TestApplyBeforeSetGraphFails(t *testing.T) {
	sess, err := seastar.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
		b.VFeature("h", 2)
		return func(v *seastar.Vertex) *seastar.Value { return v.Nbr("h").AggSum() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Apply(nil, nil, nil); err == nil {
		t.Fatal("Apply without a graph accepted")
	}
}

func TestProgramIntrospection(t *testing.T) {
	sess, _ := newSessionWithGraph(t, 10, 30)
	prog, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
		b.VFeature("eu", 1)
		b.VFeature("ev", 1)
		b.VFeature("h", 4)
		return func(v *seastar.Vertex) *seastar.Value {
			e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
			a := e.Div(e.AggSum())
			return a.Mul(v.Nbr("h")).AggSum()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Inputs()) != 3 {
		t.Fatalf("inputs: %v", prog.Inputs())
	}
	if !strings.Contains(prog.ForwardIR(), "Agg<D>") {
		t.Fatal("forward IR missing aggregation")
	}
	if !strings.Contains(prog.BackwardIR(), "A:S") {
		t.Fatal("backward IR missing A:S")
	}
	sum := prog.PlanSummary()
	if !strings.Contains(sum, "forward units:") || !strings.Contains(sum, "seastar") {
		t.Fatalf("plan summary:\n%s", sum)
	}
}

func TestGPUList(t *testing.T) {
	gpus := seastar.GPUs()
	if len(gpus) != 3 || gpus[0] != "V100" {
		t.Fatalf("GPUs: %v", gpus)
	}
}
