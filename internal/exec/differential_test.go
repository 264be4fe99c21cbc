package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/refinterp"
	"seastar/internal/tensor"
)

// randomProgram deterministically generates a random (but valid)
// vertex-centric program from a seed. Calling it twice with the same seed
// yields structurally identical programs, so the same program can be
// traced once for the reference interpreter and once for the compiled
// pipeline.
func randomProgram(seed int64, hetero bool, dim int) (*gir.Builder, gir.UDF) {
	b := gir.NewBuilder()
	b.VFeature("h", dim)
	b.VFeature("s", 1)
	if hetero {
		b.EFeature("w", 1)
	}
	udf := func(v *gir.Vertex) *gir.Value {
		rng := rand.New(rand.NewSource(seed))
		pool := []*gir.Value{v.Nbr("h"), v.Self("h"), v.Nbr("s"), v.Self("s")}
		if hetero {
			pool = append(pool, v.Edge("w"))
		}
		pick := func() *gir.Value { return pool[rng.Intn(len(pool))] }
		pickWidth := func(w int) *gir.Value {
			for tries := 0; tries < 20; tries++ {
				c := pick()
				if c.Node().Dim() == w || c.Node().Dim() == 1 || w == 1 {
					return c
				}
			}
			return pick()
		}
		nOps := 3 + rng.Intn(6)
		for i := 0; i < nOps; i++ {
			var nv *gir.Value
			switch rng.Intn(10) {
			case 0:
				nv = pick().Sigmoid()
			case 1:
				nv = pick().Tanh()
			case 2:
				nv = pick().LeakyReLU(0.2)
			case 3:
				nv = pick().MulScalar(0.5).AddScalar(0.25)
			case 4, 5:
				a := pick()
				nv = a.Add(pickWidth(a.Node().Dim()))
			case 6:
				a := pick()
				nv = a.Mul(pickWidth(a.Node().Dim()))
			case 7:
				a := pick()
				// Keep denominators away from zero.
				nv = a.Div(pickWidth(a.Node().Dim()).Sigmoid().AddScalar(1.1))
			case 8:
				a := pick()
				if a.Node().Dim() > 1 {
					nv = a.RowSum()
				} else {
					nv = a.Neg()
				}
			default:
				a := pick()
				if a.Type() != gir.TypeD { // aggregate pre-D values only
					if hetero && rng.Intn(2) == 0 {
						nv = a.AggHier(gir.AggSum, gir.AggSum)
					} else {
						nv = a.AggSum()
					}
				} else {
					nv = a.Sigmoid()
				}
			}
			pool = append(pool, nv)
		}
		// Final output must be D-typed: reuse a D value or aggregate.
		for i := len(pool) - 1; i >= 0; i-- {
			if pool[i].Type() == gir.TypeD {
				return pool[i]
			}
		}
		last := pool[len(pool)-1]
		if last.Type() == gir.TypeD {
			return last
		}
		return last.AggSum()
	}
	return b, udf
}

// differentialBindings builds matching inputs for both engines.
type diffInputs struct {
	h, s *tensor.Tensor
	w    *tensor.Tensor // nil unless hetero
}

func makeDiffInputs(rng *rand.Rand, g *graph.Graph, dim int, hetero bool) diffInputs {
	in := diffInputs{
		h: tensor.Randn(rng, 0.5, g.N, dim),
		s: tensor.Randn(rng, 0.5, g.N, 1),
	}
	if hetero {
		in.w = tensor.Randn(rng, 0.5, g.M, 1)
	}
	return in
}

// runCompiled executes the compiled pipeline and returns the output and,
// optionally, per-input gradients (h, s, w order).
func runCompiled(t *testing.T, seed int64, g *graph.Graph, in diffInputs, dim int,
	hetero, backward bool) (*tensor.Tensor, map[string]*tensor.Tensor) {
	t.Helper()
	b, udf := randomProgram(seed, hetero, dim)
	dag, err := b.Build(udf)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	c, err := Compile(dag)
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	e := nn.NewEngine(device.New(device.V100))
	rt := NewRuntime(e, g)
	vf := map[string]*nn.Variable{
		"h": e.Param(in.h, "h"),
		"s": e.Param(in.s, "s"),
	}
	var ef map[string]*nn.Variable
	if hetero {
		ef = map[string]*nn.Variable{"w": e.Param(in.w, "w")}
	}
	out, err := c.Apply(rt, vf, ef, nil)
	if err != nil {
		t.Fatalf("seed %d: apply: %v", seed, err)
	}
	grads := map[string]*tensor.Tensor{}
	if backward {
		loss := e.SumAll(e.Tanh(out))
		e.Backward(loss)
		grads["h"] = vf["h"].Grad
		grads["s"] = vf["s"].Grad
		if hetero {
			grads["w"] = ef["w"].Grad
		}
	}
	return out.Value, grads
}

// runReference traces the same program again and evaluates it with the
// definitional interpreter (no optimizer, no fusion, no kernels).
func runReference(t *testing.T, seed int64, g *graph.Graph, in diffInputs, dim int, hetero bool) *tensor.Tensor {
	t.Helper()
	b, udf := randomProgram(seed, hetero, dim)
	dag, err := b.Build(udf)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	bind := &refinterp.Bindings{
		VFeat: map[string]*tensor.Tensor{"h": in.h, "s": in.s},
	}
	if hetero {
		bind.EFeat = map[string]*tensor.Tensor{"w": in.w}
	}
	vals, err := refinterp.Eval(dag, g, bind)
	if err != nil {
		t.Fatalf("seed %d: reference: %v", seed, err)
	}
	return vals[dag.Outputs[0]]
}

func TestDifferentialRandomProgramsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for seed := int64(0); seed < 60; seed++ {
		hetero := seed%3 == 0
		dim := []int{1, 2, 4}[rng.Intn(3)]
		n := 8 + rng.Intn(20)
		m := 20 + rng.Intn(60)
		if max := n * (n - 1); m > max {
			m = max
		}
		g := graph.GNM(rng, n, m)
		if hetero {
			graph.RandomEdgeTypes(rng, g, 1+rng.Intn(4))
			if err := g.SortEdgesByType(); err != nil {
				t.Fatal(err)
			}
		}
		g = g.SortByDegree()
		in := makeDiffInputs(rng, g, dim, hetero)
		got, _ := runCompiled(t, seed, g, in, dim, hetero, false)
		want := runReference(t, seed, g, in, dim, hetero)
		if !tensor.AllClose(got, want, 1e-3) {
			t.Fatalf("seed %d (hetero=%v dim=%d): compiled output diverges from reference by %g",
				seed, hetero, dim, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestDifferentialRandomProgramsGradients(t *testing.T) {
	// Numerical gradients via the reference interpreter against the
	// compiled backward pass, on a handful of random programs.
	rng := rand.New(rand.NewSource(4321))
	checked := 0
	for seed := int64(100); checked < 8; seed++ {
		hetero := seed%2 == 0
		dim := 2
		g := graph.GNM(rng, 8, 24)
		if hetero {
			graph.RandomEdgeTypes(rng, g, 3)
			if err := g.SortEdgesByType(); err != nil {
				t.Fatal(err)
			}
		}
		g = g.SortByDegree()
		in := makeDiffInputs(rng, g, dim, hetero)
		_, grads := runCompiled(t, seed, g, in, dim, hetero, true)

		refLoss := func() float64 {
			out := runReference(t, seed, g, in, dim, hetero)
			var s float64
			for i := 0; i < out.Size(); i++ {
				s += math.Tanh(float64(out.At1(i)))
			}
			return s
		}
		const eps = 1e-2
		targets := map[string]*tensor.Tensor{"h": in.h, "s": in.s}
		if hetero {
			targets["w"] = in.w
		}
		probes, misses := 0, 0
		var lastMiss string
		for name, target := range targets {
			analytic := grads[name]
			// Spot-check a few coordinates to keep runtime low. A nil
			// analytic gradient means the input is unused (dead in the
			// random program); the numeric gradient must then be ~0.
			for probe := 0; probe < 5; probe++ {
				i := rng.Intn(target.Size())
				orig := target.At1(i)
				target.Set1(i, orig+eps)
				up := refLoss()
				target.Set1(i, orig-eps)
				down := refLoss()
				target.Set1(i, orig)
				num := (up - down) / (2 * eps)
				a := 0.0
				if analytic != nil {
					a = float64(analytic.At1(i))
				}
				probes++
				diff := math.Abs(a - num)
				scale := math.Max(math.Abs(a), math.Abs(num)) + 1e-2
				if diff/scale > 0.15 {
					misses++
					lastMiss = fmt.Sprintf("seed %d %s[%d]: analytic %v vs numeric %v", seed, name, i, a, num)
				}
			}
		}
		// Central differences are invalid where a probe crosses a
		// LeakyReLU/ReLU kink; isolated misses are expected, systematic
		// ones are bugs.
		if misses*5 > probes {
			t.Fatalf("%d/%d gradient probes failed; last: %s", misses, probes, lastMiss)
		}
		checked++
	}
}

// TestReLUHasOneDefinition pins ReLU to x > 0 ? x : 0, so NaN and -0 give
// +0, wherever it runs, in both SIMD modes: a P-typed ReLU runs in a dense
// unit (tensor.ReLU) and must match refinterp with a NaN in the weight,
// and a vertex-typed one runs in a fused kernel and must match tensor.ReLU
// bit for bit over rows of NaN, -0 and ±Inf.
func TestReLUHasOneDefinition(t *testing.T) {
	g := graph.Figure7()
	rng := rand.New(rand.NewSource(5))
	inf := float32(math.Inf(1))
	special := tensor.FromSlice([]float32{
		float32(math.NaN()), float32(math.Copysign(0, -1)), inf, -inf,
		-inf, float32(math.NaN()), 2, -3,
		0.5, -0.5, float32(math.Copysign(0, -1)), inf,
		1, -1, 0, float32(math.NaN()),
	}, g.N, 4)
	w := tensor.Randn(rng, 1, 4, 4)
	w.Data()[5] = float32(math.NaN())
	h := tensor.Randn(rng, 1, g.N, 4)
	for _, tc := range []struct {
		name string
		h    *tensor.Tensor
		udf  func(W *gir.Value) gir.UDF
		want func(dag *gir.DAG) *tensor.Tensor
	}{
		{"P-typed", h, func(W *gir.Value) gir.UDF {
			return func(v *gir.Vertex) *gir.Value { return v.Nbr("h").MatMul(W.ReLU()).AggSum() }
		}, func(dag *gir.DAG) *tensor.Tensor {
			vals, err := refinterp.Eval(dag, g, &refinterp.Bindings{
				VFeat: map[string]*tensor.Tensor{"h": h}, Params: map[string]*tensor.Tensor{"W": w}})
			if err != nil {
				t.Fatal(err)
			}
			return vals[dag.Outputs[0]]
		}},
		{"vertex-typed", special, func(*gir.Value) gir.UDF {
			return func(v *gir.Vertex) *gir.Value { return v.Self("h").ReLU() }
		}, func(*gir.DAG) *tensor.Tensor { return tensor.ReLU(special) }},
	} {
		b := gir.NewBuilder()
		b.VFeature("h", 4)
		dag, err := b.Build(tc.udf(b.Param("W", 4, 4)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileInference(dag)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want(dag)
		for _, simd := range []bool{false, true} {
			prev := tensor.SetSIMD(simd)
			got, err := c.Infer(&InferEnv{G: g}, map[string]*tensor.Tensor{"h": tc.h}, nil, map[string]*tensor.Tensor{"W": w})
			tensor.SetSIMD(prev)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range got.Data() {
				if math.Float32bits(x) != math.Float32bits(want.Data()[i]) {
					t.Errorf("%s simd=%v: element %d is %v, want %v", tc.name, simd, i, x, want.Data()[i])
				}
			}
		}
	}
}
