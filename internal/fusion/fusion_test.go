package fusion

import (
	"slices"
	"testing"

	"seastar/internal/autodiff"
	"seastar/internal/gir"
)

func isAgg(n *gir.Node) bool { return n.Op.IsAgg() }

func buildGAT(t *testing.T) *gir.DAG {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("eu", 1)
	b.VFeature("ev", 1)
	b.VFeature("h", 8)
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

func buildGCN(t *testing.T) *gir.DAG {
	t.Helper()
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	b.VFeature("norm", 1)
	W := b.Param("W", 4, 2)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

func opsOfUnit(u *Unit) []gir.OpKind {
	var ops []gir.OpKind
	for _, n := range u.Nodes {
		ops = append(ops, n.Op)
	}
	return ops
}

func TestGATForwardFusionMatchesFigure6(t *testing.T) {
	// The paper's Figure 6 forward GIR fuses into exactly two units:
	// {Add, LeakyRelu, Exp, AggSum} and {Div, Mul, AggSum} — Div cannot
	// fuse with AggSum (state 2 only accepts D, Div is E).
	dag := Optimize(buildGAT(t))
	plan, err := Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) != 2 {
		for _, u := range plan.Units {
			t.Log(u)
		}
		t.Fatalf("GAT forward units: %d, want 2", len(plan.Units))
	}
	u0, u1 := plan.Units[0], plan.Units[1]
	if u0.Kind != KindSeastar || u1.Kind != KindSeastar {
		t.Fatalf("unit kinds: %s, %s", u0.Kind, u1.Kind)
	}
	want0 := []gir.OpKind{gir.OpAdd, gir.OpLeakyReLU, gir.OpExp, gir.OpAgg}
	want1 := []gir.OpKind{gir.OpDiv, gir.OpMul, gir.OpAgg}
	got0, got1 := opsOfUnit(u0), opsOfUnit(u1)
	match := func(got, want []gir.OpKind) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if !match(got0, want0) || !match(got1, want1) {
		t.Fatalf("units:\n  %v\n  %v", got0, got1)
	}
	if !slices.ContainsFunc(u0.Nodes, isAgg) || !slices.ContainsFunc(u1.Nodes, isAgg) {
		t.Fatal("both GAT units contain an aggregation")
	}
}

func TestGCNForwardFusion(t *testing.T) {
	// GCN: the dense matmul is its own (un-fused) unit; Mul+AggSum fuse.
	dag := Optimize(buildGCN(t))
	plan, err := Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) != 2 {
		t.Fatalf("GCN units: %d", len(plan.Units))
	}
	var dense, seastar *Unit
	for _, u := range plan.Units {
		switch u.Kind {
		case KindDense:
			dense = u
		case KindSeastar:
			seastar = u
		}
	}
	if dense == nil || len(dense.Nodes) != 1 || dense.Nodes[0].Op != gir.OpMatMulP {
		t.Fatalf("dense unit: %v", dense)
	}
	if seastar == nil || len(seastar.Nodes) != 2 {
		t.Fatalf("seastar unit: %v", seastar)
	}
	// Dense unit must be ordered before the seastar unit that consumes it.
	if dense.ID > seastar.ID {
		t.Fatal("units out of dependency order")
	}
}

func TestBackwardPartitionsWithoutCycles(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *gir.DAG{
		"gcn": buildGCN, "gat": buildGAT,
	} {
		fwd := Optimize(build(t))
		g, err := autodiff.Backward(fwd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bwd := Optimize(g.DAG)
		plan, err := Partition(bwd)
		if err != nil {
			t.Fatalf("%s backward: %v", name, err)
		}
		// Backward of a seastar program is seastar-shaped: it must
		// contain at least one fused unit with an aggregation.
		found := false
		for _, u := range plan.Units {
			if u.Kind == KindSeastar && slices.ContainsFunc(u.Nodes, isAgg) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s backward has no fused aggregation unit", name)
		}
		// ParamGrad units appear for GCN (it has a weight).
		if name == "gcn" {
			pg := false
			for _, u := range plan.Units {
				if u.Kind == KindParamGrad {
					pg = true
				}
			}
			if !pg {
				t.Fatal("gcn backward missing paramgrad unit")
			}
		}
	}
}

func TestCSEMergesDuplicateLeavesAndOps(t *testing.T) {
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		// Two syntactically separate but identical subtrees.
		x := v.Nbr("h").Exp()
		y := v.Nbr("h").Exp()
		return x.Add(y).AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(dag.Nodes)
	opt := Optimize(dag)
	if len(opt.Nodes) >= before {
		t.Fatalf("CSE did not shrink: %d -> %d", before, len(opt.Nodes))
	}
	exps := 0
	for _, n := range opt.Nodes {
		if n.Op == gir.OpExp {
			exps++
		}
	}
	if exps != 1 {
		t.Fatalf("Exp nodes after CSE: %d", exps)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		x := v.Nbr("h").MulScalar(1).AddScalar(0) // both identity
		x = x.Neg().Neg()                         // identity
		x = x.Log().Exp()                         // identity
		x = x.MulScalar(2).MulScalar(3)           // folds to *6
		return x.AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(dag)
	var muls []*gir.Node
	for _, n := range opt.Nodes {
		switch n.Op {
		case gir.OpNeg, gir.OpLog, gir.OpExp, gir.OpAddConst:
			t.Fatalf("op %s survived simplification", n.Op)
		case gir.OpMulConst:
			muls = append(muls, n)
		}
	}
	if len(muls) != 1 || muls[0].Attr.C != 6 {
		t.Fatalf("MulConst folding: %v", muls)
	}
}

func TestSimplifyKeepsBroadcastMulConst(t *testing.T) {
	// The widening MulConst(1) emitted by RowSum backward must NOT be
	// removed: it changes the width.
	b := gir.NewBuilder()
	b.VFeature("h", 4)
	fwd, err := b.Build(func(v *gir.Vertex) *gir.Value {
		// RowSum's backward broadcasts a [1] gradient to width 4 via a
		// widening MulConst(1).
		return v.Nbr("h").RowSum().Exp().AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := autodiff.Backward(fwd)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(g.DAG)
	found := false
	for _, n := range opt.Nodes {
		if n.Op == gir.OpMulConst && n.Dim() != n.Inputs[0].Dim() {
			found = true
		}
	}
	if !found {
		t.Fatal("broadcast MulConst was simplified away")
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializedGATForward(t *testing.T) {
	dag := Optimize(buildGAT(t))
	plan, err := Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	mat := plan.Materialized(nil)
	u0, u1 := plan.Units[0], plan.Units[1]
	// Unit 0 materializes only its AggSum (a vertex tensor): the E-typed
	// Exp that unit 1 consumes is RECOMPUTED there by materialization
	// planning, never written as an [M,1] tensor.
	names := map[gir.OpKind]bool{}
	for _, n := range mat[u0] {
		names[n.Op] = true
	}
	if !names[gir.OpAgg] {
		t.Fatalf("unit0 materializes %v", mat[u0])
	}
	if names[gir.OpExp] || names[gir.OpAdd] || names[gir.OpLeakyReLU] {
		t.Fatalf("unit0 over-materializes: %v", mat[u0])
	}
	// Unit 1 materializes only its output AggSum.
	if len(mat[u1]) != 1 || mat[u1][0] != dag.Outputs[0] {
		t.Fatalf("unit1 materializes %v", mat[u1])
	}
	// With an extra saved set, intermediates become materialized.
	var div *gir.Node
	for _, n := range dag.Nodes {
		if n.Op == gir.OpDiv {
			div = n
		}
	}
	mat2 := plan.Materialized(map[*gir.Node]bool{div: true})
	if len(mat2[u1]) != 2 {
		t.Fatalf("extra saved not materialized: %v", mat2[u1])
	}
}

func TestUnitAndKindStrings(t *testing.T) {
	dag := Optimize(buildGCN(t))
	plan, err := Partition(dag)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range plan.Units {
		if u.String() == "" {
			t.Fatal("empty unit string")
		}
		if plan.UnitOf(u.Nodes[0]) != u {
			t.Fatal("UnitOf inconsistent")
		}
	}
	if KindSeastar.String() != "seastar" || KindDense.String() != "dense" ||
		KindParamGrad.String() != "paramgrad" || UnitKind(9).String() == "" {
		t.Fatal("kind strings")
	}
}

func TestHeteroUDFFusesIntoOneUnit(t *testing.T) {
	// R-GCN layer body: typed matmul (E), edge-norm multiply (E),
	// hierarchical aggregation — all one seastar unit.
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
	plan, err := Partition(Optimize(dag))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) != 1 || plan.Units[0].Kind != KindSeastar {
		t.Fatalf("hetero units: %v", plan.Units)
	}
}
