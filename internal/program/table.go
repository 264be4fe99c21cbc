package program

import "seastar/internal/gir"

// The only file that spells an architecture (DESIGN §8). The table maps
// each served name to its declaration; the declarations below it are
// trained but not served.

// programs is the table of served architectures.
var programs = map[string]struct {
	defaults func(*Spec) // optional
	declare  func(s Spec, inDim, numRel int) *Program
}{
	"gcn": {declare: GCN},
	"gat": {declare: GAT},
	"appnp": {
		defaults: func(s *Spec) {
			if s.Alpha <= 0 || s.Alpha >= 1 {
				s.Alpha = 0.1
			}
			if s.K < 1 {
				s.K = 10
			}
		},
		declare: APPNP,
	},
	"rgcn": {declare: RGCN},
}

// GCN is two layers of mean aggregation (Figure 1):
// h' = σ(b + Σ_{u∈N(v)} norm_u · h_u W). The dense h·W is hoisted out of
// the vertex program — bitwise-identical to tracing the matmul inside it
// (the compiler lowers Nbr(h).MatMul(W) to the same per-row transform;
// TestHoistedGCNMatchesInPlanMatMul checks it forward and backward) — which is what makes the architecture incremental.
func GCN(s Spec, in, _ int) *Program {
	layer := func(l string, width int, a Act) Stage {
		return Stage{
			Dense: []Dense{{Out: "hw" + l, W: "W" + l}},
			Plan: &Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("hw", width)
				b.VFeature("norm", 1)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					return v.Nbr("hw").Mul(v.Nbr("norm")).AggSum()
				})
			}},
			Values: []Bind{{"hw", "hw" + l}},
			Norms:  []NormBind{{"norm", NormInDeg}},
			Bias:   "b" + l, Act: a,
		}
	}
	return &Program{
		Weights: []Weight{wt("W1", in, s.Hidden), wt("b1", s.Hidden), wt("W2", s.Hidden, s.Classes), wt("b2", s.Classes)},
		Stages:  []Stage{layer("1", s.Hidden, Sigmoid), layer("2", s.Classes, None)},
	}
}

// GAT is two layers of single-head attention (Figure 2), the scores eu/ev
// computed densely as in the paper's own listing; ev is the one Self-side
// input.
func GAT(s Spec, in, _ int) *Program {
	layer := func(l string, width int, a Act) Stage {
		return Stage{
			Dense: []Dense{{Out: "hw" + l, W: "W" + l},
				{Out: "eu" + l, In: "hw" + l, W: "aU" + l}, {Out: "ev" + l, In: "hw" + l, W: "aV" + l}},
			Plan: &Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("eu", 1)
				b.VFeature("ev", 1)
				b.VFeature("h", width)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
					a := e.Div(e.AggSum())
					return a.Mul(v.Nbr("h")).AggSum()
				})
			}},
			Values: []Bind{{"eu", "eu" + l}, {"ev", "ev" + l}, {"h", "hw" + l}},
			Act:    a,
		}
	}
	return &Program{
		Weights: []Weight{wt("W1", in, s.Hidden), wt("aU1", s.Hidden, 1), wt("aV1", s.Hidden, 1),
			wt("W2", s.Hidden, s.Classes), wt("aU2", s.Classes, 1), wt("aV2", s.Classes, 1)},
		Stages: []Stage{layer("1", s.Hidden, ReLU), layer("2", s.Classes, None)},
	}
}

// APPNP is "predict then propagate": an MLP (dense in the first stage),
// then K personalized-PageRank steps
// h^{k+1} = (1-α)·D̂⁻½ A D̂⁻½ h^k + α·h0, each reading the previous step's
// output and the MLP's h0 whole — neither is a dense output of the step's
// own stage, so deltas cannot patch it. The destination chain stays inside
// the fused kernel (state-2 fusion in the paper's FSM).
func APPNP(s Spec, in, _ int) *Program {
	p := &Program{Weights: []Weight{wt("W1", in, s.Hidden), wt("W2", s.Hidden, s.Classes)}}
	step := Stage{
		Plan: &Plan{Trace: func() (*gir.DAG, error) {
			b := gir.NewBuilder()
			b.VFeature("h", s.Classes)
			b.VFeature("h0", s.Classes)
			b.VFeature("sn", 1)
			b.VFeature("dn", 1)
			return b.Build(func(v *gir.Vertex) *gir.Value {
				agg := v.Nbr("h").Mul(v.Nbr("sn")).AggSum()
				return agg.Mul(v.Self("dn")).MulScalar(1 - s.Alpha).
					Add(v.Self("h0").MulScalar(s.Alpha))
			})
		}},
		Values: []Bind{{"h", ""}, {"h0", "h0"}},
		Norms:  []NormBind{{"sn", NormSymSrc}, {"dn", NormSymDst}},
	}
	for k := 0; k < s.K; k++ {
		p.Stages = append(p.Stages, step)
	}
	p.Stages[0].Dense = []Dense{{Out: "h1", W: "W1", Act: ReLU}, {Out: "h0", In: "h1", W: "W2"}}
	p.Stages[0].Values = []Bind{{"h", "h0"}, {"h0", "h0"}}
	return p
}

// RGCN is two relational layers (Schlichtkrull et al.): a per-edge-type
// transform of the neighbour's row, normalized per (vertex, relation) and
// summed hierarchically (§6.3.5), plus a self loop.
func RGCN(s Spec, in, numRel int) *Program {
	layer := func(l string, in, out int, a Act) Stage {
		return Stage{
			Dense: []Dense{{Out: "self" + l, W: "Wself" + l}},
			Plan: &Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("h", in)
				b.EFeature("norm", 1)
				Ws := b.Param("W", numRel, in, out)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
				})
			}},
			Values: []Bind{{"h", ""}},
			Norms:  []NormBind{{"norm", NormEdgeRel}},
			Params: []Bind{{"W", "Ws" + l}},
			Plus:   "self" + l, Act: a,
		}
	}
	return &Program{
		Weights: []Weight{wt("Ws1", numRel, in, s.Hidden), wt("Wself1", in, s.Hidden),
			wt("Ws2", numRel, s.Hidden, s.Classes), wt("Wself2", s.Hidden, s.Classes)},
		Stages: []Stage{layer("1", in, s.Hidden, ReLU), layer("2", s.Hidden, s.Classes, None)},
	}
}

// MiniBatchSAGE is the sampled mini-batch trainer's model: one
// self-plus-neighbours convolution h' = (h_v + Σ_{u∈N(v)} h_u)·W, compiled
// once and applied to every batch subgraph (§5.1 at mini-batch
// granularity). It aggregates before it multiplies: on a block the sum is
// D-typed, a row per seed, so the product, its weight gradient and the
// loss all run over the seeds, and h, an input, needs no gradient and so
// no backward edge unit. Multiplying first would put an S-typed h·W over
// every sampled row in front of the sum. The plan reads h both ways under
// one key, so it is trained, never served.
func MiniBatchSAGE(in, classes int) *Program {
	return &Program{
		Weights: []Weight{wt("W", in, classes)},
		Stages: []Stage{{
			Plan: &Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("h", in)
				W := b.Param("W", in, classes)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					self := v.Self("h")
					return v.Nbr("h").AggSum().Add(self).MatMul(W)
				})
			}},
			Values: []Bind{{"h", ""}},
			Params: []Bind{{"W", "W"}},
		}},
	}
}
