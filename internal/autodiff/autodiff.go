// Package autodiff generates a backward GIR from a forward GIR (paper
// §5.2). The backward graph is itself a seastar-shaped GIR on the reverse
// graph: source-wise forward operations become aggregation-stage backward
// operations and vice versa (§6.3.4), so the same fusion and kernel
// machinery applies to both passes.
//
// Values the backward pass needs from the forward pass appear as
// LeafSaved nodes whose Ref points at the forward node; the executor's
// materialization planning decides whether each reference is stored or
// recomputed.
package autodiff

import (
	"fmt"

	"seastar/internal/gir"
)

// Gradients is the result of differentiating a forward DAG.
type Gradients struct {
	// DAG is the backward graph, topologically ordered.
	DAG *gir.DAG
	// Seed is the LeafGrad placeholder for the forward output's
	// gradient, provided by the DL backend at runtime (§5.2).
	Seed *gir.Node
	// LeafGrads maps each differentiable forward leaf (features and
	// parameters) to the backward node computing its gradient.
	LeafGrads map[*gir.Node]*gir.Node
	// LeafOrder lists the forward leaves in the same order as
	// DAG.Outputs, so the correspondence survives optimizer rewrites
	// that replace output nodes in place.
	LeafOrder []*gir.Node
}

type builder struct {
	nodes  []*gir.Node
	nextID int
}

func (b *builder) add(n *gir.Node) *gir.Node {
	n.ID = b.nextID
	b.nextID++
	b.nodes = append(b.nodes, n)
	return n
}

func (b *builder) op(kind gir.OpKind, t gir.GraphType, shape []int, attr gir.Attr, inputs ...*gir.Node) *gir.Node {
	return b.add(&gir.Node{
		Op: kind, Type: t, Inputs: inputs, Attr: attr,
		Shape: append([]int(nil), shape...),
	})
}

// saved creates a LeafSaved reference to a forward node.
func (b *builder) saved(ref *gir.Node) *gir.Node {
	return b.add(&gir.Node{
		Op: gir.OpLeaf, LeafKind: gir.LeafSaved, Ref: ref,
		Type: ref.Type, Shape: append([]int(nil), ref.Shape...),
	})
}

// adjust converts a gradient contribution c to the graph type and width of
// the input it flows into, inserting RowSum for scalar broadcasts,
// EdgeView for vertex→edge broadcasts, A:S / A:D aggregations for
// edge→vertex reductions — the paper's "ingest edge-wise aggregation
// operators" rule — and SumRows for vertex→parameter broadcasts.
func (b *builder) adjust(c *gir.Node, wantType gir.GraphType, wantShape []int) (*gir.Node, error) {
	wantDim := 1
	for _, s := range wantShape {
		wantDim *= s
	}
	if c.Dim() != wantDim {
		if wantDim != 1 {
			return nil, fmt.Errorf("autodiff: cannot reduce grad of width %d to %d", c.Dim(), wantDim)
		}
		c = b.op(gir.OpRowSum, c.Type, []int{1}, gir.Attr{}, c)
	}
	switch {
	case c.Type == wantType:
		return c, nil
	case wantType == gir.TypeE && (c.Type == gir.TypeS || c.Type == gir.TypeD):
		return b.op(gir.OpEdgeView, gir.TypeE, c.Shape, gir.Attr{}, c), nil
	case c.Type == gir.TypeE && wantType == gir.TypeS:
		n := b.op(gir.OpAgg, gir.TypeS, c.Shape, gir.Attr{AggOp: gir.AggSum}, c)
		n.Dir = gir.AggToSrc
		return n, nil
	case c.Type == gir.TypeE && wantType == gir.TypeD:
		n := b.op(gir.OpAgg, gir.TypeD, c.Shape, gir.Attr{AggOp: gir.AggSum}, c)
		n.Dir = gir.AggToDst
		return n, nil
	case wantType == gir.TypeP && (c.Type == gir.TypeS || c.Type == gir.TypeD) && len(c.Shape) == 1 && len(wantShape) == 1:
		return b.op(gir.OpSumRows, gir.TypeP, wantShape, gir.Attr{}, c), nil
	default:
		return nil, fmt.Errorf("autodiff: no conversion from grad type %s to input type %s", c.Type, wantType)
	}
}

// Backward differentiates fwd (which must have exactly one output) and
// returns the backward DAG. Aggregations other than sum (and hierarchical
// sum-of-sums) have no gradient and produce an error.
func Backward(fwd *gir.DAG) (*Gradients, error) {
	if len(fwd.Outputs) != 1 {
		return nil, fmt.Errorf("autodiff: want exactly 1 output, got %d", len(fwd.Outputs))
	}
	out := fwd.Outputs[0]
	b := &builder{}

	seed := b.add(&gir.Node{
		Op: gir.OpLeaf, LeafKind: gir.LeafGrad, Key: "dy",
		Type: out.Type, Shape: append([]int(nil), out.Shape...),
	})

	// grads[n] is the accumulated gradient of forward node n's output.
	grads := map[*gir.Node]*gir.Node{out: seed}

	accumulate := func(input *gir.Node, contrib *gir.Node) error {
		c, err := b.adjust(contrib, input.Type, input.Shape)
		if err != nil {
			return err
		}
		if prev, ok := grads[input]; ok {
			grads[input] = b.op(gir.OpAdd, c.Type, c.Shape, gir.Attr{}, prev, c)
		} else {
			grads[input] = c
		}
		return nil
	}

	// Reverse topological order guarantees every node's downstream
	// consumers contribute before the node itself is differentiated.
	for i := len(fwd.Nodes) - 1; i >= 0; i-- {
		n := fwd.Nodes[i]
		g, ok := grads[n]
		if !ok || n.Op == gir.OpLeaf {
			continue
		}
		if err := diffNode(b, n, g, accumulate); err != nil {
			return nil, err
		}
	}

	res := &Gradients{Seed: seed, LeafGrads: make(map[*gir.Node]*gir.Node)}
	var outputs []*gir.Node
	for _, n := range fwd.Nodes {
		if n.Op != gir.OpLeaf {
			continue
		}
		if n.LeafKind != gir.LeafSrcFeat && n.LeafKind != gir.LeafDstFeat &&
			n.LeafKind != gir.LeafEdgeFeat && n.LeafKind != gir.LeafParam {
			continue
		}
		if gn, ok := grads[n]; ok {
			res.LeafGrads[n] = gn
			res.LeafOrder = append(res.LeafOrder, n)
			outputs = append(outputs, gn)
		}
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("autodiff: no differentiable leaves reached by the output")
	}
	res.DAG = gir.NewDAG(outputs)
	if err := res.DAG.Validate(); err != nil {
		return nil, fmt.Errorf("autodiff: generated invalid backward DAG: %w", err)
	}
	return res, nil
}

// diffNode emits the gradient contributions of n's inputs given n's output
// gradient g.
func diffNode(b *builder, n *gir.Node, g *gir.Node, acc func(in, contrib *gir.Node) error) error {
	in := n.Inputs
	mulType := func(x, y *gir.Node) gir.GraphType {
		// binary type inference for emitted backward ops
		a, bb := x.Type, y.Type
		if a == gir.TypeP {
			return bb
		}
		if bb == gir.TypeP {
			return a
		}
		if a == bb {
			return a
		}
		return gir.TypeE
	}
	switch n.Op {
	case gir.OpAdd:
		if err := acc(in[0], g); err != nil {
			return err
		}
		return acc(in[1], g)

	case gir.OpSub:
		if err := acc(in[0], g); err != nil {
			return err
		}
		neg := b.op(gir.OpNeg, g.Type, g.Shape, gir.Attr{}, g)
		return acc(in[1], neg)

	case gir.OpMul:
		bs := b.saved(in[1])
		da := b.op(gir.OpMul, mulType(g, bs), n.Shape, gir.Attr{}, g, bs)
		if err := acc(in[0], da); err != nil {
			return err
		}
		as := b.saved(in[0])
		db := b.op(gir.OpMul, mulType(g, as), n.Shape, gir.Attr{}, g, as)
		return acc(in[1], db)

	case gir.OpDiv:
		bs := b.saved(in[1])
		da := b.op(gir.OpDiv, mulType(g, bs), n.Shape, gir.Attr{}, g, bs)
		if err := acc(in[0], da); err != nil {
			return err
		}
		ns := b.saved(n)
		gn := b.op(gir.OpMul, mulType(g, ns), n.Shape, gir.Attr{}, g, ns)
		gnb := b.op(gir.OpDiv, mulType(gn, bs), n.Shape, gir.Attr{}, gn, bs)
		db := b.op(gir.OpNeg, gnb.Type, gnb.Shape, gir.Attr{}, gnb)
		return acc(in[1], db)

	case gir.OpNeg:
		return acc(in[0], b.op(gir.OpNeg, g.Type, g.Shape, gir.Attr{}, g))

	case gir.OpExp:
		ns := b.saved(n)
		return acc(in[0], b.op(gir.OpMul, mulType(g, ns), n.Shape, gir.Attr{}, g, ns))

	case gir.OpLog:
		as := b.saved(in[0])
		return acc(in[0], b.op(gir.OpDiv, mulType(g, as), n.Shape, gir.Attr{}, g, as))

	case gir.OpLeakyReLU:
		as := b.saved(in[0])
		d := b.op(gir.OpLeakyReLUGrad, mulType(g, as), n.Shape, gir.Attr{Slope: n.Attr.Slope}, as, g)
		return acc(in[0], d)

	case gir.OpReLU:
		as := b.saved(in[0])
		return acc(in[0], b.op(gir.OpReLUGrad, mulType(g, as), n.Shape, gir.Attr{}, as, g))

	case gir.OpSigmoid:
		ns := b.saved(n)
		return acc(in[0], b.op(gir.OpSigmoidGrad, mulType(g, ns), n.Shape, gir.Attr{}, ns, g))

	case gir.OpTanh:
		ns := b.saved(n)
		return acc(in[0], b.op(gir.OpTanhGrad, mulType(g, ns), n.Shape, gir.Attr{}, ns, g))

	case gir.OpMulConst:
		return acc(in[0], b.op(gir.OpMulConst, g.Type, g.Shape, gir.Attr{C: n.Attr.C}, g))

	case gir.OpAddConst:
		return acc(in[0], g)

	case gir.OpRowSum:
		// d/dx sum_j x_j = 1: broadcast g back across the feature dim.
		// EdgeView/AggSum conversions are handled by acc; widening a [1]
		// gradient to [d] is a free register broadcast in the kernel,
		// expressed as Mul with a saved ones-like? The identity suffices:
		// Mul(x, 1) — emit MulConst(1) with the wider shape.
		wide := b.op(gir.OpMulConst, g.Type, in[0].Shape, gir.Attr{C: 1}, g)
		return acc(in[0], wide)

	case gir.OpEdgeView:
		return acc(in[0], g)

	case gir.OpMatMulP:
		w := in[1]
		ws := b.saved(w)
		dx := b.op(gir.OpMatMulPT, g.Type, []int{w.Shape[0]}, gir.Attr{}, g, ws)
		if err := acc(in[0], dx); err != nil {
			return err
		}
		xs := b.saved(in[0])
		dw := b.op(gir.OpParamGradMM, gir.TypeP, w.Shape, gir.Attr{}, xs, g)
		return acc(w, dw)

	case gir.OpMatMulTyped:
		w := in[1]
		ws := b.saved(w)
		dx := b.op(gir.OpMatMulTypedT, gir.TypeE, []int{w.Shape[1]}, gir.Attr{}, g, ws)
		if err := acc(in[0], dx); err != nil {
			return err
		}
		xs := b.saved(in[0])
		dw := b.op(gir.OpParamGradMMTyped, gir.TypeP, w.Shape, gir.Attr{}, xs, g)
		return acc(w, dw)

	case gir.OpAgg:
		if n.Attr.AggOp != gir.AggSum {
			return fmt.Errorf("autodiff: aggregation %s has no gradient (only sum is differentiable)", n.Attr.AggOp)
		}
		// d(sum over edges)/d(input): the output gradient read back
		// edge-wise; acc's adjust re-aggregates for S/D-typed inputs.
		ev := b.op(gir.OpEdgeView, gir.TypeE, g.Shape, gir.Attr{}, g)
		return acc(in[0], ev)

	case gir.OpAggHier:
		if n.Attr.InnerOp != gir.AggSum || n.Attr.OuterOp != gir.AggSum {
			return fmt.Errorf("autodiff: hierarchical %s/%s aggregation has no gradient (only sum/sum)",
				n.Attr.InnerOp, n.Attr.OuterOp)
		}
		ev := b.op(gir.OpEdgeView, gir.TypeE, g.Shape, gir.Attr{}, g)
		return acc(in[0], ev)

	default:
		return fmt.Errorf("autodiff: no gradient rule for %s", n.Op)
	}
}
