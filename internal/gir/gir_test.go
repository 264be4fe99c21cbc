package gir

import (
	"strings"
	"testing"
)

// gcnUDF is the paper's Figure 3 GCN body: sum(mm(u.h, W) * u.norm).
func gcnUDF(b *Builder) UDF {
	W := b.Param("W", 4, 2)
	return func(v *Vertex) *Value {
		return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
	}
}

// gatUDF is the paper's Figure 3 GAT body (attention already projected
// into eu/ev as in the paper).
func gatUDF(b *Builder) UDF {
	return func(v *Vertex) *Value {
		e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
		s := e.AggSum()
		a := e.Div(s)
		return a.Mul(v.Nbr("h")).AggSum()
	}
}

func buildGCN(t *testing.T) *DAG {
	t.Helper()
	b := NewBuilder()
	b.VFeature("h", 4)
	b.VFeature("norm", 1)
	dag, err := b.Build(gcnUDF(b))
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

func buildGAT(t *testing.T) *DAG {
	t.Helper()
	b := NewBuilder()
	b.VFeature("eu", 1)
	b.VFeature("ev", 1)
	b.VFeature("h", 8)
	dag, err := b.Build(gatUDF(b))
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

func TestGCNTraceTypes(t *testing.T) {
	dag := buildGCN(t)
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
	out := dag.Outputs[0]
	if out.Op != OpAgg || out.Type != TypeD || out.Dir != AggToDst {
		t.Fatalf("output: %v", out)
	}
	// The chain below the aggregation stays S-typed (S-S fusion source).
	mul := out.Inputs[0]
	if mul.Op != OpMul || mul.Type != TypeS {
		t.Fatalf("mul: %v", mul)
	}
	mm := mul.Inputs[0]
	if mm.Op != OpMatMulP || mm.Type != TypeS || mm.Dim() != 2 {
		t.Fatalf("matmul: %v", mm)
	}
}

func TestGATTraceTypes(t *testing.T) {
	// Reproduces the typing walk-through of §5.1/Figure 6: Add(S,D)=E,
	// LeakyRelu E, Exp E, AggSum → D, Div(E,D)=E, Mul(E,S)=E, AggSum → D.
	dag := buildGAT(t)
	if err := dag.Validate(); err != nil {
		t.Fatal(err)
	}
	types := map[OpKind][]GraphType{}
	for _, n := range dag.Nodes {
		types[n.Op] = append(types[n.Op], n.Type)
	}
	if got := types[OpAdd]; len(got) != 1 || got[0] != TypeE {
		t.Fatalf("Add types: %v", got)
	}
	if got := types[OpLeakyReLU]; len(got) != 1 || got[0] != TypeE {
		t.Fatalf("LeakyReLU types: %v", got)
	}
	if got := types[OpDiv]; len(got) != 1 || got[0] != TypeE {
		t.Fatalf("Div types: %v (E/D must be E)", got)
	}
	if got := types[OpMul]; len(got) != 1 || got[0] != TypeE {
		t.Fatalf("Mul types: %v (E*S must be E)", got)
	}
	if got := types[OpAgg]; len(got) != 2 || got[0] != TypeD || got[1] != TypeD {
		t.Fatalf("Agg types: %v", got)
	}
}

func TestTypeInferenceRules(t *testing.T) {
	cases := []struct {
		a, b, want GraphType
	}{
		{TypeS, TypeS, TypeS},
		{TypeD, TypeD, TypeD},
		{TypeE, TypeE, TypeE},
		{TypeS, TypeD, TypeE},
		{TypeS, TypeE, TypeE},
		{TypeD, TypeE, TypeE},
		{TypeP, TypeS, TypeS},
		{TypeD, TypeP, TypeD},
		{TypeP, TypeP, TypeP},
	}
	for _, c := range cases {
		if got := inferBinaryType(c.a, c.b); got != c.want {
			t.Errorf("infer(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestBroadcastShapes(t *testing.T) {
	b := NewBuilder()
	b.VFeature("x", 4)
	b.VFeature("s", 1)
	dag, err := b.Build(func(v *Vertex) *Value {
		return v.Nbr("x").Mul(v.Nbr("s")).AggSum() // [4] * [1] broadcasts
	})
	if err != nil {
		t.Fatal(err)
	}
	if dag.Outputs[0].Dim() != 4 {
		t.Fatalf("broadcast result dim %d", dag.Outputs[0].Dim())
	}
}

func TestTraceErrors(t *testing.T) {
	cases := map[string]func(b *Builder) UDF{
		"unknown feature": func(b *Builder) UDF {
			return func(v *Vertex) *Value { return v.Nbr("missing").AggSum() }
		},
		"unknown edge feature": func(b *Builder) UDF {
			return func(v *Vertex) *Value { return v.Edge("missing").AggSum() }
		},
		"unknown self feature": func(b *Builder) UDF {
			return func(v *Vertex) *Value { return v.Self("missing").AggSum() }
		},
		"shape mismatch": func(b *Builder) UDF {
			b.VFeature("a", 3)
			b.VFeature("b", 4)
			return func(v *Vertex) *Value { return v.Nbr("a").Add(v.Nbr("b")).AggSum() }
		},
		"matmul dim mismatch": func(b *Builder) UDF {
			b.VFeature("a", 3)
			W := b.Param("W", 4, 2)
			return func(v *Vertex) *Value { return v.Nbr("a").MatMul(W).AggSum() }
		},
		"matmul by non-param": func(b *Builder) UDF {
			b.VFeature("a", 3)
			return func(v *Vertex) *Value { return v.Nbr("a").MatMul(v.Nbr("a")).AggSum() }
		},
		"non-D output": func(b *Builder) UDF {
			b.VFeature("a", 3)
			return func(v *Vertex) *Value { return v.Nbr("a") }
		},
		"nil output": func(b *Builder) UDF {
			return func(v *Vertex) *Value { return nil }
		},
		"aggregate param": func(b *Builder) UDF {
			W := b.Param("W", 2, 2)
			return func(v *Vertex) *Value { return W.AggSum() }
		},
	}
	for name, mk := range cases {
		b := NewBuilder()
		udf := mk(b)
		if _, err := b.Build(udf); err == nil {
			t.Errorf("%s: expected trace error", name)
		}
	}
}

func TestMatMulTyped(t *testing.T) {
	b := NewBuilder()
	b.VFeature("h", 4)
	b.EFeature("norm", 1)
	Ws := b.Param("W", 3, 4, 2) // 3 relations
	dag, err := b.Build(func(v *Vertex) *Value {
		return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(AggSum, AggSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	var mm *Node
	for _, n := range dag.Nodes {
		if n.Op == OpMatMulTyped {
			mm = n
		}
	}
	if mm == nil || mm.Type != TypeE || mm.Dim() != 2 {
		t.Fatalf("typed matmul node: %v", mm)
	}
	out := dag.Outputs[0]
	if out.Op != OpAggHier || out.Attr.InnerOp != AggSum || out.Attr.OuterOp != AggSum {
		t.Fatalf("hier agg: %v", out)
	}
}

func TestMatMulTypedErrors(t *testing.T) {
	for name, mk := range map[string]func(b *Builder) UDF{
		"2d weight": func(b *Builder) UDF {
			b.VFeature("h", 4)
			W := b.Param("W", 4, 2)
			return func(v *Vertex) *Value { return v.Nbr("h").MatMulTyped(W).AggSum() }
		},
		"dst input": func(b *Builder) UDF {
			b.VFeature("h", 4)
			W := b.Param("W", 3, 4, 2)
			return func(v *Vertex) *Value { return v.Self("h").MatMulTyped(W).AggSum() }
		},
		"dim mismatch": func(b *Builder) UDF {
			b.VFeature("h", 5)
			W := b.Param("W", 3, 4, 2)
			return func(v *Vertex) *Value { return v.Nbr("h").MatMulTyped(W).AggSum() }
		},
	} {
		b := NewBuilder()
		if _, err := b.Build(mk(b)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDAGHelpers(t *testing.T) {
	dag := buildGCN(t)
	vkeys, ekeys := dag.FeatureKeys()
	if len(vkeys) != 2 || len(ekeys) != 0 {
		t.Fatalf("feature keys: %v %v", vkeys, ekeys)
	}
	if pk := dag.ParamKeys(); len(pk) != 1 || pk[0] != "W" {
		t.Fatalf("param keys: %v", pk)
	}
	if len(dag.Leaves()) != 3 { // h, norm, W
		t.Fatalf("leaves: %d", len(dag.Leaves()))
	}
	s := dag.String()
	if !strings.Contains(s, "Agg<D>") || !strings.Contains(s, "outputs:") {
		t.Fatalf("String():\n%s", s)
	}
}

func TestPruneDropsDeadNodes(t *testing.T) {
	b := NewBuilder()
	b.VFeature("h", 2)
	dag, err := b.Build(func(v *Vertex) *Value {
		dead := v.Nbr("h").Exp() // never used
		_ = dead
		return v.Nbr("h").AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(dag.Nodes)
	pruned := dag.Prune()
	if len(pruned.Nodes) >= before {
		t.Fatalf("prune: %d -> %d", before, len(pruned.Nodes))
	}
	if err := pruned.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range pruned.Nodes {
		if n.Op == OpExp {
			t.Fatal("dead Exp survived prune")
		}
	}
}

func TestNodeAndEnumStrings(t *testing.T) {
	dag := buildGAT(t)
	for _, n := range dag.Nodes {
		if n.String() == "" {
			t.Fatal("empty node string")
		}
	}
	if TypeS.String() != "S" || TypeP.String() != "P" || GraphType(9).String() == "" {
		t.Fatal("GraphType strings")
	}
	if AggToDst.String() != "A:D" || AggToSrc.String() != "A:S" {
		t.Fatal("AggDir strings")
	}
	if AggSum.String() != "sum" || AggKind(9).String() == "" {
		t.Fatal("AggKind strings")
	}
	if OpAdd.String() != "Add" || OpKind(99).String() == "" {
		t.Fatal("OpKind strings")
	}
	if LeafParam.String() != "param" || LeafKind(9).String() == "" {
		t.Fatal("LeafKind strings")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	dag := buildGCN(t)
	// Break topo order by reversing nodes.
	bad := &DAG{Nodes: make([]*Node, len(dag.Nodes)), Outputs: dag.Outputs}
	for i, n := range dag.Nodes {
		bad.Nodes[len(dag.Nodes)-1-i] = n
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("reversed DAG validated")
	}
	// Output outside DAG.
	orphan := &Node{ID: 999, Op: OpLeaf}
	bad2 := &DAG{Nodes: dag.Nodes, Outputs: []*Node{orphan}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("orphan output validated")
	}
}

func TestRowSum(t *testing.T) {
	b := NewBuilder()
	b.VFeature("h", 6)
	dag, err := b.Build(func(v *Vertex) *Value {
		return v.Nbr("h").RowSum().Exp().AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	var rs *Node
	for _, n := range dag.Nodes {
		if n.Op == OpRowSum {
			rs = n
		}
	}
	if rs == nil || rs.Type != TypeS || rs.Dim() != 1 {
		t.Fatalf("RowSum node: %v", rs)
	}
	if dag.Outputs[0].Dim() != 1 {
		t.Fatalf("output dim %d", dag.Outputs[0].Dim())
	}
}

func TestNewDAGPreservesTraceOrder(t *testing.T) {
	// The fusion tie-break depends on construction order surviving
	// optimizer rewrites: NewDAG must keep surviving nodes in relative
	// (trace) order even though its reachability walk is depth-first.
	b := NewBuilder()
	b.VFeature("h", 2)
	dag, err := b.Build(func(v *Vertex) *Value {
		early := v.Self("h").MulScalar(2) // traced first
		return v.Nbr("h").AggSum().Add(early)
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned := dag.Prune()
	// MulConst was traced before the aggregation and must stay earlier.
	posMul, posAgg := -1, -1
	for i, n := range pruned.Nodes {
		switch n.Op {
		case OpMulConst:
			posMul = i
		case OpAgg:
			posAgg = i
		}
	}
	if posMul < 0 || posAgg < 0 || posMul > posAgg {
		t.Fatalf("trace order lost: MulConst at %d, Agg at %d", posMul, posAgg)
	}
}
