// Package gir implements Seastar's graph-aware intermediate representation
// (paper §5.1): a computational DAG whose tensors carry a *graph type* —
// S (source-wise), D (destination-wise), E (edge-wise), P (parameter) —
// plus the distinguished aggregation operators (graph type A in the
// paper), and the vertex-centric tracer that builds the DAG from a
// user-defined function written against a single center vertex.
package gir

import "fmt"

// GraphType classifies what a GIR tensor's rows are indexed by (§5.1).
type GraphType int

const (
	// TypeS tensors hold one row per *source* vertex of an edge access.
	TypeS GraphType = iota
	// TypeD tensors hold one row per *destination* (center) vertex.
	TypeD
	// TypeE tensors hold one row per edge.
	TypeE
	// TypeP tensors are parameters shared by all vertices/edges.
	TypeP
)

// String renders the type as the paper's single-letter code: S, D, E, P.
func (t GraphType) String() string {
	switch t {
	case TypeS:
		return "S"
	case TypeD:
		return "D"
	case TypeE:
		return "E"
	case TypeP:
		return "P"
	default:
		return fmt.Sprintf("GraphType(%d)", int(t))
	}
}

// AggDir distinguishes the paper's A:D and A:S aggregation operators
// (§6.2): A:D aggregates edge/source values per destination (the forward
// direction); A:S aggregates per source over out-edges (the backward
// direction).
type AggDir int

const (
	// AggToDst produces a D-typed tensor (A:D).
	AggToDst AggDir = iota
	// AggToSrc produces an S-typed tensor (A:S).
	AggToSrc
)

// String renders the direction as the paper's A:D / A:S notation.
func (d AggDir) String() string {
	if d == AggToDst {
		return "A:D"
	}
	return "A:S"
}

// OutType returns the graph type an aggregation of this direction yields.
func (d AggDir) OutType() GraphType {
	if d == AggToDst {
		return TypeD
	}
	return TypeS
}

// AggKind is the reduction applied by an aggregation operator.
type AggKind int

const (
	AggSum  AggKind = iota // Σ over incident edges
	AggMax                 // elementwise max
	AggMin                 // elementwise min
	AggMean                // Σ divided by the receiver's degree
)

// String names the reduction (sum, max, min, mean).
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggMean:
		return "mean"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// OpKind enumerates GIR operators. The set covers the four paper models
// (GCN, GAT, APPNP, R-GCN) in both forward and backward form.
type OpKind int

const (
	// OpLeaf is an input: a vertex/edge feature, a parameter, or the
	// incoming gradient placeholder in a backward GIR.
	OpLeaf OpKind = iota

	// Binary elementwise (shapes broadcast [1] against [d]).
	OpAdd // x + y
	OpSub // x - y
	OpMul // x * y
	OpDiv // x / y

	// Unary elementwise.
	OpNeg       // -x
	OpExp       // e^x
	OpLog       // ln x
	OpLeakyReLU // Attr: slope
	OpReLU      // max(x, 0)
	OpSigmoid   // 1/(1+e^-x)
	OpTanh      // tanh x
	OpMulConst  // Attr: c
	OpAddConst  // Attr: c

	// Parameter matrix products: row-vector x times P-typed weight.
	OpMatMulP  // x[in] @ W[in,out]  -> [out]
	OpMatMulPT // g[out] @ Wᵀ        -> [in]
	// Per-edge-type weights for heterogeneous models: W has shape
	// [R, in, out] and the edge's type selects the slice.
	OpMatMulTyped  // x[in] @ W[type(e),in,out] -> [out]
	OpMatMulTypedT // g[out] @ W[type(e)]ᵀ      -> [in]

	// Gradient helpers emitted by autodiff (inputs: saved value, grad).
	OpLeakyReLUGrad // Attr: slope; inputs: x, g
	OpReLUGrad      // inputs: x, g
	OpSigmoidGrad   // inputs: y (forward output), g
	OpTanhGrad      // inputs: y, g

	// OpRowSum reduces a per-row vector to a scalar ([d] -> [1]) within
	// the same graph type; autodiff emits it for scalar-broadcast
	// gradients, and UDFs may use it for attention scores.
	OpRowSum
	// OpEdgeView reads a vertex-typed (S or D) value edge-wise: the
	// identity map e ↦ value[endpoint(e)], producing an E-typed tensor.
	// Autodiff emits it when broadcasting an aggregation's gradient back
	// onto edges; inside a fused kernel it is a free register read.
	OpEdgeView

	// Aggregations (the paper's A-typed operators).
	OpAgg     // Attr: AggOp; Dir: AggDir
	OpAggHier // hierarchical per-edge-type aggregation; Attr: InnerOp/OuterOp

	// Parameter-gradient reductions: dW = Σ_rows xᵀ g, producing TypeP.
	OpParamGradMM      // dW[in,out] = Σ xᵀ g
	OpParamGradMMTyped // per-edge-type dW[R,in,out], rows bucketed by type
)

var opNames = map[OpKind]string{
	OpLeaf: "Leaf",
	OpAdd:  "Add", OpSub: "Sub", OpMul: "Mul", OpDiv: "Div",
	OpNeg: "Neg", OpExp: "Exp", OpLog: "Log",
	OpLeakyReLU: "LeakyRelu", OpReLU: "Relu", OpSigmoid: "Sigmoid", OpTanh: "Tanh",
	OpMulConst: "MulConst", OpAddConst: "AddConst",
	OpMatMulP: "MatMul", OpMatMulPT: "MatMulT",
	OpMatMulTyped: "MatMulTyped", OpMatMulTypedT: "MatMulTypedT",
	OpLeakyReLUGrad: "LeakyReluGrad", OpReLUGrad: "ReluGrad",
	OpSigmoidGrad: "SigmoidGrad", OpTanhGrad: "TanhGrad",
	OpRowSum: "RowSum", OpEdgeView: "EdgeView",
	OpAgg: "Agg", OpAggHier: "AggHier",
	OpParamGradMM: "ParamGradMM", OpParamGradMMTyped: "ParamGradMMTyped",
}

// String names the operator as it appears in GIR listings.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsAgg reports whether the op is one of the A-typed aggregations.
func (k OpKind) IsAgg() bool { return k == OpAgg || k == OpAggHier }

// LeafKind says what a leaf node reads.
type LeafKind int

const (
	// LeafSrcFeat reads the neighbour (source) vertex's feature row.
	LeafSrcFeat LeafKind = iota
	// LeafDstFeat reads the center (destination) vertex's feature row.
	LeafDstFeat
	// LeafEdgeFeat reads the edge's feature row.
	LeafEdgeFeat
	// LeafParam reads a shared parameter tensor.
	LeafParam
	// LeafGrad is the incoming-gradient placeholder in a backward GIR;
	// its Key names the forward output it is the gradient of.
	LeafGrad
	// LeafSaved references a forward node's materialized (or recomputed)
	// value from within a backward GIR; Ref points at the forward node.
	LeafSaved
)

// String names the leaf kind (src, dst, edge, param, grad, saved).
func (k LeafKind) String() string {
	switch k {
	case LeafSrcFeat:
		return "src"
	case LeafDstFeat:
		return "dst"
	case LeafEdgeFeat:
		return "edge"
	case LeafParam:
		return "param"
	case LeafGrad:
		return "grad"
	case LeafSaved:
		return "saved"
	default:
		return fmt.Sprintf("LeafKind(%d)", int(k))
	}
}

// Attr carries operator attributes.
type Attr struct {
	Slope   float32 // LeakyReLU family
	C       float32 // MulConst / AddConst
	AggOp   AggKind // OpAgg
	InnerOp AggKind // OpAggHier: reduction within one edge type
	OuterOp AggKind // OpAggHier: reduction across edge types
}

// Node is one operator (or leaf) in a GIR DAG.
type Node struct {
	ID     int
	Op     OpKind
	Type   GraphType // graph type of the OUTPUT tensor
	Dir    AggDir    // meaningful when Op.IsAgg()
	Inputs []*Node
	Attr   Attr
	// Shape is the per-row feature shape (the paper strips the leading
	// batch dimension, §5.1); e.g. [16] for a 16-wide embedding.
	Shape []int

	// Leaf metadata (Op == OpLeaf).
	LeafKind LeafKind
	Key      string
	// Ref points at the forward node whose value a LeafSaved reads.
	Ref *Node
}

// Dim returns the flat per-row width of the node's value.
func (n *Node) Dim() int {
	d := 1
	for _, s := range n.Shape {
		d *= s
	}
	return d
}

// String renders the node as one GIR listing line: id, op, graph type,
// inputs and per-row shape.
func (n *Node) String() string {
	if n.Op == OpLeaf {
		if n.LeafKind == LeafSaved && n.Ref != nil {
			return fmt.Sprintf("%%%d = Leaf<%s>(saved fwd %%%d %s)%v", n.ID, n.Type, n.Ref.ID, n.Ref.Op, n.Shape)
		}
		return fmt.Sprintf("%%%d = Leaf<%s>(%s:%q)%v", n.ID, n.Type, n.LeafKind, n.Key, n.Shape)
	}
	s := fmt.Sprintf("%%%d = %s<%s>(", n.ID, n.Op, n.Type)
	for i, in := range n.Inputs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%%%d", in.ID)
	}
	s += fmt.Sprintf(")%v", n.Shape)
	if n.Op.IsAgg() {
		s += " " + n.Dir.String()
	}
	return s
}
