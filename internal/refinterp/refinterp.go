// Package refinterp is a direct, definition-following interpreter for GIR
// graphs: every node is materialized as a full tensor in its index space
// (S/D ⇒ one row per vertex, E ⇒ one row per edge, P ⇒ the parameter
// shape) and evaluated without fusion, kernels, or cost accounting.
//
// It exists as the differential-testing oracle for the compiled pipeline:
// the fused seastar execution of any program must match this interpreter
// bit-for-bit up to float accumulation order. It is also a readable
// specification of GIR semantics.
package refinterp

import (
	"fmt"
	"math"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Bindings resolves leaves, mirroring kernels.Bindings without a device.
type Bindings struct {
	VFeat  map[string]*tensor.Tensor
	EFeat  map[string]*tensor.Tensor
	Params map[string]*tensor.Tensor
	Grad   *tensor.Tensor
	// Saved resolves LeafSaved references to forward values (themselves
	// computed by a previous Eval of the forward DAG).
	Saved map[*gir.Node]*tensor.Tensor
}

// Eval evaluates every node of dag over g and returns the value of each.
func Eval(dag *gir.DAG, g *graph.Graph, b *Bindings) (map[*gir.Node]*tensor.Tensor, error) {
	vals := make(map[*gir.Node]*tensor.Tensor, len(dag.Nodes))
	for _, n := range dag.Nodes {
		t, err := evalNode(n, g, b, vals)
		if err != nil {
			return nil, fmt.Errorf("refinterp: node %s: %w", n, err)
		}
		vals[n] = t
	}
	return vals, nil
}

// rows returns the row count of a node's index space.
func rows(n *gir.Node, g *graph.Graph) int {
	switch n.Type {
	case gir.TypeE:
		return g.M
	case gir.TypeP:
		return 1
	default:
		return g.N
	}
}

// rowAt reads the value of node `in` for edge e (endpoints src→dst).
func rowAt(in *gir.Node, t *tensor.Tensor, src, dst, eid int) []float32 {
	switch in.Type {
	case gir.TypeS:
		return t.Row(src)
	case gir.TypeD:
		return t.Row(dst)
	case gir.TypeE:
		return t.Row(eid)
	default: // P: broadcast
		return t.Data()
	}
}

func get(row []float32, j int) float32 {
	if len(row) == 1 {
		return row[0]
	}
	return row[j]
}

func evalNode(n *gir.Node, g *graph.Graph, b *Bindings, vals map[*gir.Node]*tensor.Tensor) (*tensor.Tensor, error) {
	if n.Op == gir.OpLeaf {
		return evalLeaf(n, b)
	}
	if n.Op.IsAgg() {
		return evalAgg(n, g, vals)
	}
	switch n.Op {
	case gir.OpMatMulP:
		x, w := vals[n.Inputs[0]], vals[n.Inputs[1]]
		return tensor.MatMul(x, w), nil
	case gir.OpMatMulPT:
		x, w := vals[n.Inputs[0]], vals[n.Inputs[1]]
		return tensor.MatMulT(x, w), nil
	case gir.OpParamGradMM:
		return evalParamGrad(n, g, vals, false)
	case gir.OpParamGradMMTyped:
		return evalParamGrad(n, g, vals, true)
	case gir.OpSumRows:
		return tensor.SumRows(vals[n.Inputs[0]]).Reshape(n.Shape...), nil
	case gir.OpMatMulTyped, gir.OpMatMulTypedT:
		return evalTypedMM(n, g, vals)
	case gir.OpEdgeView:
		in := n.Inputs[0]
		t := vals[in]
		out := tensor.New(g.M, in.Dim())
		for e := 0; e < g.M; e++ {
			copy(out.Row(e), rowAt(in, t, int(g.Srcs[e]), int(g.Dsts[e]), e))
		}
		return out, nil
	}
	// Elementwise ops and RowSum: same index space as the (first
	// non-parameter) input; mixed vertex types imply an E-typed op whose
	// operands are read per edge.
	return evalPointwise(n, g, vals)
}

func evalLeaf(n *gir.Node, b *Bindings) (*tensor.Tensor, error) {
	switch n.LeafKind {
	case gir.LeafSrcFeat, gir.LeafDstFeat:
		if t, ok := b.VFeat[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("vertex feature %q not bound", n.Key)
	case gir.LeafEdgeFeat:
		if t, ok := b.EFeat[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("edge feature %q not bound", n.Key)
	case gir.LeafParam:
		if t, ok := b.Params[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("parameter %q not bound", n.Key)
	case gir.LeafGrad:
		if b.Grad == nil {
			return nil, fmt.Errorf("gradient not bound")
		}
		return b.Grad, nil
	case gir.LeafSaved:
		if n.Ref.Op == gir.OpLeaf {
			return evalLeaf(n.Ref, b)
		}
		if t, ok := b.Saved[n.Ref]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("saved value %%%d not bound", n.Ref.ID)
	default:
		return nil, fmt.Errorf("unknown leaf kind %v", n.LeafKind)
	}
}

func evalAgg(n *gir.Node, g *graph.Graph, vals map[*gir.Node]*tensor.Tensor) (*tensor.Tensor, error) {
	in := n.Inputs[0]
	t := vals[in]
	out := tensor.New(g.N, n.Dim())
	toDst := n.Dir == gir.AggToDst
	csr, ids := &g.In, []int32(nil) // an in-CSR's slots are its edge ids
	if !toDst {
		csr, ids = &g.Out, g.Out.EdgeIDs
	}
	for k := 0; k < csr.NumRows(); k++ {
		v := int(csr.RowIDs[k])
		nbrs, lo := csr.Row(k), csr.Offsets[k]
		eid := func(i int) int {
			if ids == nil {
				return int(lo) + i
			}
			return int(ids[lo+int64(i)])
		}
		or := out.Row(v)
		if len(nbrs) == 0 {
			continue
		}
		if n.Op == gir.OpAggHier {
			if err := aggHierRow(n, g, in, t, v, nbrs, eid, toDst, or); err != nil {
				return nil, err
			}
			continue
		}
		kind := n.Attr.AggOp
		initRow(or, kind)
		for i := range nbrs {
			// In-CSR rows are destinations (A:D); out-CSR rows sources.
			src, dst := int(nbrs[i]), v
			if !toDst {
				src, dst = v, int(nbrs[i])
			}
			row := rowAt(in, t, src, dst, eid(i))
			reduceRow(or, row, kind)
		}
		if kind == gir.AggMean {
			inv := 1 / float32(len(nbrs))
			for j := range or {
				or[j] *= inv
			}
		}
	}
	return out, nil
}

func aggHierRow(n *gir.Node, g *graph.Graph, in *gir.Node, t *tensor.Tensor,
	v int, nbrs []int32, eid func(int) int, toDst bool, or []float32) error {
	if g.EdgeTypes == nil {
		return fmt.Errorf("hierarchical aggregation needs edge types")
	}
	inner := make([]float32, len(or))
	initRow(or, n.Attr.OuterOp)
	curType := int32(-1)
	started := false
	for i := range nbrs {
		et := g.EdgeTypes[eid(i)]
		if started && et != curType {
			reduceRow(or, inner, n.Attr.OuterOp)
			initRow(inner, n.Attr.InnerOp)
		} else if !started {
			initRow(inner, n.Attr.InnerOp)
		}
		curType = et
		started = true
		src, dst := int(nbrs[i]), v
		if !toDst {
			src, dst = v, int(nbrs[i])
		}
		reduceRow(inner, rowAt(in, t, src, dst, eid(i)), n.Attr.InnerOp)
	}
	if started {
		reduceRow(or, inner, n.Attr.OuterOp)
	}
	return nil
}

func initRow(row []float32, kind gir.AggKind) {
	switch kind {
	case gir.AggMax:
		for i := range row {
			row[i] = float32(math.Inf(-1))
		}
	case gir.AggMin:
		for i := range row {
			row[i] = float32(math.Inf(1))
		}
	default:
		for i := range row {
			row[i] = 0
		}
	}
}

func reduceRow(acc, row []float32, kind gir.AggKind) {
	switch kind {
	case gir.AggMax:
		for j := range acc {
			if v := get(row, j); v > acc[j] {
				acc[j] = v
			}
		}
	case gir.AggMin:
		for j := range acc {
			if v := get(row, j); v < acc[j] {
				acc[j] = v
			}
		}
	default:
		for j := range acc {
			acc[j] += get(row, j)
		}
	}
}

func evalTypedMM(n *gir.Node, g *graph.Graph, vals map[*gir.Node]*tensor.Tensor) (*tensor.Tensor, error) {
	if g.EdgeTypes == nil {
		return nil, fmt.Errorf("typed matmul needs edge types")
	}
	in, w := n.Inputs[0], n.Inputs[1]
	x, ws := vals[in], vals[w]
	din, dout := w.Shape[1], w.Shape[2]
	out := tensor.New(g.M, n.Dim())
	wd := ws.Data()
	for e := 0; e < g.M; e++ {
		src, dst := int(g.Srcs[e]), int(g.Dsts[e])
		xr := rowAt(in, x, src, dst, e)
		or := out.Row(e)
		base := int(g.EdgeTypes[e]) * din * dout
		if n.Op == gir.OpMatMulTyped {
			for o := 0; o < dout; o++ {
				var s float32
				for i := 0; i < din; i++ {
					s += get(xr, i) * wd[base+i*dout+o]
				}
				or[o] = s
			}
		} else { // transposed
			for i := 0; i < din; i++ {
				var s float32
				for o := 0; o < dout; o++ {
					s += get(xr, o) * wd[base+i*dout+o]
				}
				or[i] = s
			}
		}
	}
	return out, nil
}

func evalParamGrad(n *gir.Node, g *graph.Graph, vals map[*gir.Node]*tensor.Tensor, typed bool) (*tensor.Tensor, error) {
	xN, gN := n.Inputs[0], n.Inputs[1]
	x, gr := vals[xN], vals[gN]
	out := tensor.New(n.Shape...)
	din := n.Shape[len(n.Shape)-2]
	dout := n.Shape[len(n.Shape)-1]
	od := out.Data()
	vertexOnly := effType(xN) != gir.TypeE && effType(gN) != gir.TypeE
	if vertexOnly && !typed {
		return tensor.TMatMul(x, gr).Reshape(n.Shape...), nil
	}
	for e := 0; e < g.M; e++ {
		src, dst := int(g.Srcs[e]), int(g.Dsts[e])
		xr := rowAtEff(xN, x, src, dst, e)
		grr := rowAtEff(gN, gr, src, dst, e)
		base := 0
		if typed {
			base = int(g.EdgeTypes[e]) * din * dout
		}
		for i := 0; i < din; i++ {
			for o := 0; o < dout; o++ {
				od[base+i*dout+o] += get(xr, i) * get(grr, o)
			}
		}
	}
	return out, nil
}

// effType resolves LeafSaved to its referent's graph type.
func effType(n *gir.Node) gir.GraphType {
	if n.Op == gir.OpLeaf && n.LeafKind == gir.LeafSaved && n.Ref != nil {
		return n.Ref.Type
	}
	return n.Type
}

func rowAtEff(n *gir.Node, t *tensor.Tensor, src, dst, eid int) []float32 {
	switch effType(n) {
	case gir.TypeS:
		return t.Row(src)
	case gir.TypeD:
		return t.Row(dst)
	case gir.TypeE:
		return t.Row(eid)
	default:
		return t.Data()
	}
}

// evalPointwise handles elementwise ops and RowSum: output index space is
// n's type; operands are read per row (per edge when E-typed).
func evalPointwise(n *gir.Node, g *graph.Graph, vals map[*gir.Node]*tensor.Tensor) (*tensor.Tensor, error) {
	nRows := rows(n, g)
	width := n.Dim()
	var out *tensor.Tensor
	if n.Type == gir.TypeP {
		out = tensor.New(n.Shape...)
	} else {
		out = tensor.New(nRows, width)
	}
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = vals[in]
	}
	for r := 0; r < nRows; r++ {
		src, dst, eid := r, r, r
		if n.Type == gir.TypeE {
			src, dst = int(g.Srcs[r]), int(g.Dsts[r])
		}
		var or []float32
		if n.Type == gir.TypeP {
			or = out.Data()
		} else {
			or = out.Row(r)
		}
		rowsIn := make([][]float32, len(ins))
		for i, in := range n.Inputs {
			rowsIn[i] = rowAt(in, ins[i], src, dst, eid)
		}
		if err := applyPointwise(n, or, rowsIn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func applyPointwise(n *gir.Node, out []float32, in [][]float32) error {
	w := len(out)
	switch n.Op {
	case gir.OpAdd:
		for j := 0; j < w; j++ {
			out[j] = get(in[0], j) + get(in[1], j)
		}
	case gir.OpSub:
		for j := 0; j < w; j++ {
			out[j] = get(in[0], j) - get(in[1], j)
		}
	case gir.OpMul:
		for j := 0; j < w; j++ {
			out[j] = get(in[0], j) * get(in[1], j)
		}
	case gir.OpDiv:
		for j := 0; j < w; j++ {
			out[j] = get(in[0], j) / get(in[1], j)
		}
	case gir.OpNeg:
		for j := 0; j < w; j++ {
			out[j] = -get(in[0], j)
		}
	case gir.OpExp:
		for j := 0; j < w; j++ {
			out[j] = float32(math.Exp(float64(get(in[0], j))))
		}
	case gir.OpLog:
		for j := 0; j < w; j++ {
			out[j] = float32(math.Log(float64(get(in[0], j))))
		}
	case gir.OpLeakyReLU:
		for j := 0; j < w; j++ {
			v := get(in[0], j)
			if v < 0 {
				v *= n.Attr.Slope
			}
			out[j] = v
		}
	case gir.OpReLU:
		for j := 0; j < w; j++ {
			if v := get(in[0], j); v > 0 {
				out[j] = v
			} else {
				out[j] = 0 // NaN and -0 too, as tensor.ReLU
			}
		}
	case gir.OpSigmoid:
		for j := 0; j < w; j++ {
			out[j] = 1 / (1 + float32(math.Exp(float64(-get(in[0], j)))))
		}
	case gir.OpTanh:
		for j := 0; j < w; j++ {
			out[j] = float32(math.Tanh(float64(get(in[0], j))))
		}
	case gir.OpMulConst:
		for j := 0; j < w; j++ {
			out[j] = n.Attr.C * get(in[0], j)
		}
	case gir.OpAddConst:
		for j := 0; j < w; j++ {
			out[j] = n.Attr.C + get(in[0], j)
		}
	case gir.OpLeakyReLUGrad:
		for j := 0; j < w; j++ {
			if get(in[0], j) > 0 {
				out[j] = get(in[1], j)
			} else {
				out[j] = n.Attr.Slope * get(in[1], j)
			}
		}
	case gir.OpReLUGrad:
		for j := 0; j < w; j++ {
			if get(in[0], j) > 0 {
				out[j] = get(in[1], j)
			} else {
				out[j] = 0
			}
		}
	case gir.OpSigmoidGrad:
		for j := 0; j < w; j++ {
			y := get(in[0], j)
			out[j] = get(in[1], j) * y * (1 - y)
		}
	case gir.OpTanhGrad:
		for j := 0; j < w; j++ {
			y := get(in[0], j)
			out[j] = get(in[1], j) * (1 - y*y)
		}
	case gir.OpRowSum:
		var s float32
		for _, v := range in[0] {
			s += v
		}
		out[0] = s
	default:
		return fmt.Errorf("unsupported pointwise op %s", n.Op)
	}
	return nil
}
