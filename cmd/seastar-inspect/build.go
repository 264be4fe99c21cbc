package main

import (
	"fmt"

	"seastar/internal/gir"
)

// modelParams are the shape knobs shared by every built-in model.
type modelParams struct {
	in        int
	hidden    int
	relations int
}

// buildModel traces one of the built-in vertex-centric programs into a
// forward GIR. These mirror the paper's running examples: GCN (§2), GAT
// with edge softmax (§5.2/Figure 6), one APPNP propagation step, and
// R-GCN with per-relation weights + hierarchical aggregation.
//
// They are deliberately not internal/program's declarations: the listings
// are the paper's Figure 3, so GCN keeps its matmul inside the vertex
// program (Nbr(h).MatMul(W)), where the table hoists it into a dense op.
// scripts/ci.sh allows gir.NewBuilder here for that reason.
func buildModel(model string, p modelParams) (*gir.DAG, error) {
	b := gir.NewBuilder()
	var udf gir.UDF
	switch model {
	case "gcn":
		b.VFeature("h", p.in)
		b.VFeature("norm", 1)
		W := b.Param("W", p.in, p.hidden)
		udf = func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
		}
	case "gat":
		b.VFeature("eu", 1)
		b.VFeature("ev", 1)
		b.VFeature("h", p.hidden)
		udf = func(v *gir.Vertex) *gir.Value {
			e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
			a := e.Div(e.AggSum())
			return a.Mul(v.Nbr("h")).AggSum()
		}
	case "appnp":
		b.VFeature("h", p.hidden)
		b.VFeature("h0", p.hidden)
		b.VFeature("sn", 1)
		b.VFeature("dn", 1)
		udf = func(v *gir.Vertex) *gir.Value {
			agg := v.Nbr("h").Mul(v.Nbr("sn")).AggSum()
			return agg.Mul(v.Self("dn")).MulScalar(0.9).Add(v.Self("h0").MulScalar(0.1))
		}
	case "rgcn":
		b.VFeature("h", p.in)
		b.EFeature("norm", 1)
		Ws := b.Param("W", p.relations, p.in, p.hidden)
		udf = func(v *gir.Vertex) *gir.Value {
			return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
		}
	default:
		return nil, fmt.Errorf("unknown model %q (want gcn|gat|appnp|rgcn)", model)
	}
	return b.Build(udf)
}
