package exec

import (
	"fmt"

	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// storeFunc returns the tensor materialized node n is written to.
type storeFunc func(n *gir.Node, shape ...int) *tensor.Tensor

// run is the one unit loop: training's forward and backward passes and
// Infer all execute p's units here, in plan order, over g and b. A seastar
// unit runs its kernel into tensors from store; a dense or
// parameter-gradient unit evaluates its nodes one by one. rt, in training
// only, is charged with every step on its engine's device. A unit whose
// need entry is false is skipped (need nil runs all), and done, if any,
// follows each unit that ran: the backward pass's requires-grad pruning
// and eager freeing. These stay separate parameters, not one struct:
// escape analysis is not field-sensitive, and Kernel.Run lets g escape, so a
// struct holding it would move Infer's store closure and bindings to the
// heap on every call.
func (p *Pass) run(g *graph.Graph, b *kernels.Bindings, store storeFunc, rt *Runtime, need []bool, done func(unit int)) error {
	for i, u := range p.Plan.Units {
		if need != nil && !need[i] {
			continue
		}
		sp := obs.Begin("exec", p.labels[i])
		err := p.runUnit(g, b, store, rt, u)
		sp.End()
		if err != nil {
			return fmt.Errorf("exec: %s: %w", p.labels[i], err)
		}
		if done != nil {
			done(i)
		}
	}
	return nil
}

// runUnit runs one unit of p for run.
func (p *Pass) runUnit(g *graph.Graph, b *kernels.Bindings, store storeFunc, rt *Runtime, u *fusion.Unit) error {
	if k := p.kern[u]; k != nil {
		outs := make(map[*gir.Node]*tensor.Tensor, len(p.mat[u]))
		for _, m := range p.mat[u] {
			outs[m] = store(m, matShape(g, m)...)
		}
		if err := k.Run(g, b, outs); err != nil {
			return err
		}
		if rt != nil && rt.E.Dev != nil {
			k.LaunchOnly(rt.E.Dev, g, rt.Cfg)
		}
		for n, t := range outs {
			b.Inter[n] = t
		}
		return nil
	}
	var buf [2]*tensor.Tensor
	for _, n := range u.Nodes {
		ins := buf[:0]
		for _, in := range n.Inputs {
			t, err := b.Resolve(in)
			if err != nil {
				return err
			}
			ins = append(ins, t)
		}
		out, err := denseOp(g, n, ins, store)
		if err != nil {
			return err
		}
		if rt != nil {
			rt.E.ChargeDense(denseCost(g, n, ins, out))
		}
		b.Inter[n] = out
	}
	return nil
}

// reads lists the values unit u reads from other units: a seastar
// kernel's true external reads (recompute inlining can pull in values
// that are not direct node inputs, and skip direct inputs it re-derives
// in registers), otherwise its nodes' operator inputs from other units.
func (p *Pass) reads(u *fusion.Unit) []*gir.Node {
	if k := p.kern[u]; k != nil {
		return k.ExternalReads()
	}
	var out []*gir.Node
	for _, n := range u.Nodes {
		for _, in := range n.Inputs {
			if in.Op != gir.OpLeaf && p.Plan.UnitOf(in) != u {
				out = append(out, in)
			}
		}
	}
	return out
}

// ordered appends to dst the named values in c.Inputs order, or names
// the first one missing; extra entries are ignored.
func ordered[T any](c *CompiledUDF, dst []T, vfeat, efeat, params map[string]T) ([]T, error) {
	for _, s := range c.Inputs {
		v, ok := [...]map[string]T{InVFeat: vfeat, InEFeat: efeat, InParam: params}[s.Kind][s.Key]
		if !ok {
			return nil, fmt.Errorf("exec: missing %s input %q", s.Kind, s.Key)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// bind binds vals, the values of c.Inputs in order, for a run of a pass.
func (c *CompiledUDF) bind(vals []*tensor.Tensor) *kernels.Bindings {
	b := &kernels.Bindings{
		VFeat:  map[string]*tensor.Tensor{},
		EFeat:  map[string]*tensor.Tensor{},
		Params: map[string]*tensor.Tensor{},
		Inter:  map[*gir.Node]*tensor.Tensor{},
	}
	for i, s := range c.Inputs {
		[...]map[string]*tensor.Tensor{InVFeat: b.VFeat, InEFeat: b.EFeat, InParam: b.Params}[s.Kind][s.Key] = vals[i]
	}
	return b
}

// matShape is the shape of a materialized node's tensor over g: one row
// per edge, per source (g.N), per destination (g.In's rows), or the bare
// parameter shape.
func matShape(g *graph.Graph, n *gir.Node) []int {
	switch n.Type {
	case gir.TypeE:
		return append([]int{g.M}, n.Shape...)
	case gir.TypeP:
		return n.Shape
	case gir.TypeD:
		return append([]int{g.In.NumRows()}, n.Shape...)
	default:
		return append([]int{g.N}, n.Shape...)
	}
}

// denseOp evaluates one node of a dense or parameter-gradient unit over
// g into storage drawn from store. It only computes: training charges
// its engine's device with denseCost.
func denseOp(g *graph.Graph, n *gir.Node, ins []*tensor.Tensor, store storeFunc) (*tensor.Tensor, error) {
	switch n.Op {
	case gir.OpMatMulP:
		return tensor.MatMulRowsLike(ins[0], ins[1], productRows(g, n, ins[0]), store(n, ins[0].Rows(), ins[1].Cols())), nil
	case gir.OpMatMulPT:
		return tensor.MatMulTRowsLike(ins[0], ins[1], productRows(g, n, ins[0]), store(n, ins[0].Rows(), ins[1].Rows())), nil // g @ Wᵀ
	case gir.OpParamGradMM:
		if x, gr := n.Inputs[0], n.Inputs[1]; x.Type != gir.TypeE && gr.Type != gir.TypeE {
			return vertexParamGrad(g, x, gr, ins[0], ins[1], store(n, n.Shape...)), nil
		}
		return edgeParamGrad(g, n, ins[0], ins[1], false, store(n, n.Shape...)), nil
	case gir.OpParamGradMMTyped:
		return edgeParamGrad(g, n, ins[0], ins[1], true, store(n, n.Shape...)), nil
	case gir.OpSumRows: // over a block's destination rows only, as vertexParamGrad
		return tensor.SumRows(ins[0].TopRows(matShape(g, n.Inputs[0])[0]), store(n, n.Shape...)), nil
	}
	// P-typed elementwise ops: whole-tensor backend kernels (gradient
	// accumulation between parameter-gradient units, scaling, and the
	// like).
	out := store(n, ins[0].Shape()...)
	switch n.Op {
	case gir.OpAdd:
		tensor.Add(ins[0], ins[1], out)
	case gir.OpSub:
		tensor.Sub(ins[0], ins[1], out)
	case gir.OpMul:
		tensor.Mul(ins[0], ins[1], out)
	case gir.OpDiv:
		tensor.Div(ins[0], ins[1], out)
	case gir.OpNeg:
		tensor.MulScalar(ins[0], -1, out)
	case gir.OpMulConst:
		tensor.MulScalar(ins[0], n.Attr.C, out)
	case gir.OpAddConst:
		tensor.AddScalar(ins[0], n.Attr.C, out)
	case gir.OpExp:
		tensor.Exp(ins[0], out)
	case gir.OpLog:
		tensor.Log(ins[0], out)
	case gir.OpSigmoid:
		tensor.Sigmoid(ins[0], out)
	case gir.OpTanh:
		tensor.Tanh(ins[0], out)
	case gir.OpReLU:
		tensor.ReLU(ins[0], out)
	case gir.OpLeakyReLU:
		tensor.LeakyReLU(ins[0], n.Attr.Slope, out)
	default:
		return nil, fmt.Errorf("exec: dense unit cannot run %s", n.Op)
	}
	return out, nil
}

// productRows is the row count a dense product's GEMM path is chosen
// from: its own, but g.N for a D-typed product, which holds only the
// destinations' rows and must add them as the N-row product does.
func productRows(g *graph.Graph, n *gir.Node, a *tensor.Tensor) int {
	if n.Type == gir.TypeD {
		return g.N
	}
	return a.Rows()
}

// denseCost is the simulated cost of one denseOp that produced out, in
// nn.Engine.ChargeDense's terms: kernel name, multiply-adds, bytes loaded
// and stored.
func denseCost(g *graph.Graph, n *gir.Node, ins []*tensor.Tensor, out *tensor.Tensor) (name string, ops float64, loadB, storeB int64) {
	switch n.Op {
	case gir.OpMatMulP, gir.OpMatMulPT:
		name = "dense.matmul"
		if n.Op == gir.OpMatMulPT {
			name = "dense.matmulT"
		}
		return name, float64(ins[0].Rows()) * float64(ins[1].Rows()) * float64(ins[1].Cols()),
			int64(ins[0].Size()+ins[1].Size()) * 4, int64(out.Size()) * 4
	case gir.OpParamGradMM, gir.OpParamGradMMTyped:
		rows := g.M
		if n.Inputs[0].Type != gir.TypeE && n.Inputs[1].Type != gir.TypeE {
			rows = ins[0].Rows()
		}
		din, dout := n.Shape[len(n.Shape)-2], n.Shape[len(n.Shape)-1]
		return "paramgrad", float64(rows) * float64(din) * float64(dout),
			int64(ins[0].Size()+ins[1].Size()) * 4, int64(out.Size()) * 4 * 2
	case gir.OpSumRows:
		return "dense.SumRows", float64(ins[0].Size()), int64(ins[0].Size()) * 4, int64(out.Size()) * 4
	}
	return "dense." + n.Op.String(), float64(out.Size()), int64(out.Size()) * 8, int64(out.Size()) * 4
}

// vertexParamGrad is dW = xᵀ·g over vertex rows into out. A D-typed
// operand pairs only the rows of a block's destinations, [0,
// In.NumRows()): the rows the square graph would add past them are exact
// zeros, so the product runs over the prefix, dispatched as the N-row
// product is.
func vertexParamGrad(gr *graph.Graph, xNode, gNode *gir.Node, x, g, out *tensor.Tensor) *tensor.Tensor {
	if xNode.Type != gir.TypeD && gNode.Type != gir.TypeD {
		return tensor.TMatMul(x, g, out)
	}
	d := gr.In.NumRows()
	return tensor.TMatMulRowsLike(x.TopRows(d), g.TopRows(d), gr.N, out)
}

// edgeParamGrad accumulates per-edge outer products xᵀg into out, weight
// gradient n; with typed=true the edge's relation selects the slice.
func edgeParamGrad(gg *graph.Graph, n *gir.Node, x, g *tensor.Tensor, typed bool, out *tensor.Tensor) *tensor.Tensor {
	din, dout := n.Shape[len(n.Shape)-2], n.Shape[len(n.Shape)-1]
	od := out.Data()
	rowFor := func(n *gir.Node, t *tensor.Tensor, src, dst, eid int) []float32 {
		typ := n.Type
		if n.Op == gir.OpLeaf && n.LeafKind == gir.LeafSaved {
			typ = n.Ref.Type
		}
		switch typ {
		case gir.TypeS:
			return t.Row(src)
		case gir.TypeD:
			return t.Row(dst)
		default:
			return t.Row(eid)
		}
	}
	for e := 0; e < gg.M; e++ {
		src, dst := int(gg.Srcs[e]), int(gg.Dsts[e])
		xr := rowFor(n.Inputs[0], x, src, dst, e)
		gr := rowFor(n.Inputs[1], g, src, dst, e)
		base := 0
		if typed {
			base = int(gg.EdgeTypes[e]) * din * dout
		}
		for i := 0; i < din; i++ {
			xi := xr[i]
			if xi == 0 {
				continue
			}
			row := od[base+i*dout : base+(i+1)*dout]
			for o := 0; o < dout; o++ {
				row[o] += xi * gr[o]
			}
		}
	}
	return out
}
