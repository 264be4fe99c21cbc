// Finite-difference golden tests: for each of the paper's four models the
// backward GIR produced by Backward is evaluated with the reference
// interpreter and compared entry-by-entry against central differences of
// the forward loss. This checks the differentiation RULES themselves —
// the fused-kernel execution of the same graphs is covered by the exec
// differential tests. External test package so refinterp can be imported
// without a cycle.
package autodiff_test

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/autodiff"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/refinterp"
	"seastar/internal/tensor"
)

// gradCase is one model trace plus the bindings it needs.
type gradCase struct {
	name   string
	hetero bool
	build  func(t *testing.T) *gir.DAG
	// dims of each vertex/edge/param feature, keyed like the builder.
	vfeat map[string]int
	efeat map[string]int
	param map[string][]int
}

func gradCases() []gradCase {
	return []gradCase{
		{
			name: "gcn",
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("h", 4)
				b.VFeature("norm", 1)
				W := b.Param("W", 4, 3)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
				})
			},
			vfeat: map[string]int{"h": 4, "norm": 1},
			param: map[string][]int{"W": {4, 3}},
		},
		{
			// A parameter broadcast over the aggregation's rows, GCN's
			// bias, then the activation: the bias gradient sums the
			// sigmoid's over rows.
			name: "gcn-bias",
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("h", 3)
				b.VFeature("norm", 1)
				bias := b.Param("b", 3)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").Mul(v.Nbr("norm")).AggSum().Add(bias).Sigmoid()
				})
			},
			vfeat: map[string]int{"h": 3, "norm": 1},
			param: map[string][]int{"b": {3}},
		},
		{
			// A [1] parameter broadcast over rows and features.
			name: "scalar-bias",
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("h", 3)
				c := b.Param("c", 1)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").AggSum().Add(c)
				})
			},
			vfeat: map[string]int{"h": 3},
			param: map[string][]int{"c": {1}},
		},
		{
			name: "gat",
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("eu", 1)
				b.VFeature("ev", 1)
				b.VFeature("h", 3)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
					a := e.Div(e.AggSum())
					return a.Mul(v.Nbr("h")).AggSum()
				})
			},
			vfeat: map[string]int{"eu": 1, "ev": 1, "h": 3},
		},
		{
			name: "appnp-step",
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("h", 3)
				b.VFeature("h0", 3)
				b.VFeature("sn", 1)
				b.VFeature("dn", 1)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					agg := v.Nbr("h").Mul(v.Nbr("sn")).AggSum()
					return agg.Mul(v.Self("dn")).MulScalar(0.9).
						Add(v.Self("h0").MulScalar(0.1))
				})
			},
			vfeat: map[string]int{"h": 3, "h0": 3, "sn": 1, "dn": 1},
		},
		{
			name:   "rgcn",
			hetero: true,
			build: func(t *testing.T) *gir.DAG {
				b := gir.NewBuilder()
				b.VFeature("h", 4)
				b.EFeature("norm", 1)
				Ws := b.Param("W", 3, 4, 2)
				return mustBuild(t, b, func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).
						AggHier(gir.AggSum, gir.AggSum)
				})
			},
			vfeat: map[string]int{"h": 4},
			efeat: map[string]int{"norm": 1},
			param: map[string][]int{"W": {3, 4, 2}},
		},
	}
}

func mustBuild(t *testing.T, b *gir.Builder, udf gir.UDF) *gir.DAG {
	t.Helper()
	dag, err := b.Build(udf)
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

func gradGraph(t *testing.T, hetero bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := graph.GNM(rng, 10, 28)
	if hetero {
		graph.RandomEdgeTypes(rng, g, 3)
		if err := g.SortEdgesByType(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// loss is the scalar probe Σ out⊙gbar, accumulated in float64 so the
// central differences are dominated by the true derivative rather than
// summation noise.
func loss(out, gbar *tensor.Tensor) float64 {
	var s float64
	for i := 0; i < out.Size(); i++ {
		s += float64(out.At1(i)) * float64(gbar.At1(i))
	}
	return s
}

// fdCheck compares the analytic gradient entry against the central
// difference at two step sizes. An entry where the two step sizes
// disagree with each other sits on a non-smooth point (a LeakyReLU kink
// crossed by the perturbation) and is skipped rather than misreported.
func fdCheck(t *testing.T, name string, leaf *tensor.Tensor, i int,
	analytic float64, eval func() float64) (checked bool) {
	t.Helper()
	const rtol, atol = 1e-3, 5e-3
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= rtol*math.Max(math.Abs(a), math.Abs(b))+atol
	}
	fd := func(eps float64) float64 {
		orig := leaf.At1(i)
		leaf.Set1(i, float32(float64(orig)+eps))
		lp := eval()
		leaf.Set1(i, float32(float64(orig)-eps))
		lm := eval()
		leaf.Set1(i, orig)
		return (lp - lm) / (2 * eps)
	}
	f1 := fd(1e-2)
	if close(f1, analytic) {
		return true
	}
	f2 := fd(5e-3)
	if close(f2, analytic) {
		return true
	}
	if !close(f1, f2) {
		return false // non-smooth point; no finite-difference verdict
	}
	t.Errorf("%s[%d]: analytic %.6g vs central difference %.6g (eps 1e-2) / %.6g (eps 5e-3)",
		name, i, analytic, f1, f2)
	return true
}

func TestGradientsMatchFiniteDifferences(t *testing.T) {
	for _, tc := range gradCases() {
		t.Run(tc.name, func(t *testing.T) {
			fwd := tc.build(t)
			grads, err := autodiff.Backward(fwd)
			if err != nil {
				t.Fatal(err)
			}
			g := gradGraph(t, tc.hetero)
			rng := rand.New(rand.NewSource(20260805))

			bind := &refinterp.Bindings{
				VFeat:  map[string]*tensor.Tensor{},
				EFeat:  map[string]*tensor.Tensor{},
				Params: map[string]*tensor.Tensor{},
			}
			for k, d := range tc.vfeat {
				bind.VFeat[k] = tensor.Randn(rng, 0.5, g.N, d)
			}
			for k, d := range tc.efeat {
				bind.EFeat[k] = tensor.Randn(rng, 0.5, g.M, d)
			}
			for k, shape := range tc.param {
				bind.Params[k] = tensor.Randn(rng, 0.5, shape...)
			}

			outNode := fwd.Outputs[0]
			fwdVals, err := refinterp.Eval(fwd, g, bind)
			if err != nil {
				t.Fatal(err)
			}
			gbar := tensor.Randn(rng, 1, g.N, outNode.Dim())

			// Analytic gradients: evaluate the backward GIR with the seed
			// gradient and every forward value available as saved state.
			bwdBind := &refinterp.Bindings{
				VFeat: bind.VFeat, EFeat: bind.EFeat, Params: bind.Params,
				Grad: gbar, Saved: fwdVals,
			}
			bwdVals, err := refinterp.Eval(grads.DAG, g, bwdBind)
			if err != nil {
				t.Fatal(err)
			}

			if len(grads.LeafGrads) == 0 {
				t.Fatal("no leaf gradients produced")
			}
			for leaf, gnode := range grads.LeafGrads {
				analytic := bwdVals[gnode]
				if analytic == nil {
					t.Fatalf("no value for gradient of %s:%s", leaf.LeafKind, leaf.Key)
				}
				var bound *tensor.Tensor
				switch leaf.LeafKind {
				case gir.LeafSrcFeat, gir.LeafDstFeat:
					bound = bind.VFeat[leaf.Key]
				case gir.LeafEdgeFeat:
					bound = bind.EFeat[leaf.Key]
				case gir.LeafParam:
					bound = bind.Params[leaf.Key]
				default:
					t.Fatalf("unexpected differentiable leaf kind %s", leaf.LeafKind)
				}
				if analytic.Size() != bound.Size() {
					t.Fatalf("gradient of %s has %d entries, leaf has %d",
						leaf.Key, analytic.Size(), bound.Size())
				}

				// Check every entry on these small shapes, capped to keep
				// the quadratic (entries × evals) cost bounded.
				stride := 1
				if bound.Size() > 48 {
					stride = bound.Size() / 48
				}
				checked := 0
				for i := 0; i < bound.Size(); i += stride {
					name := tc.name + "/" + leaf.LeafKind.String() + ":" + leaf.Key
					if fdCheck(t, name, bound, i, float64(analytic.At1(i)), func() float64 {
						vals, err := refinterp.Eval(fwd, g, bind)
						if err != nil {
							t.Fatal(err)
						}
						return loss(vals[outNode], gbar)
					}) {
						checked++
					}
				}
				if checked == 0 {
					t.Fatalf("%s: every sampled entry hit a kink — no gradient verified", leaf.Key)
				}
			}
		})
	}
}
