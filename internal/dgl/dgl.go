// Package dgl reimplements the DGL-0.4 baseline the paper compares
// against (§2, §7): a whole-graph message-passing API whose graph
// operators execute with minigun-style edge-parallel kernels — per-edge
// binary search over the CSR offsets, atomic aggregation — and whose
// common patterns use the fused BinaryReduce kernel to avoid
// materializing message tensors. Each primitive is an autograd Function
// of the nn backend, with DGL-style backward kernels.
package dgl

import (
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// Engine couples the nn backend with a graph, mirroring a DGLGraph bound
// to a device.
type Engine struct {
	E *nn.Engine
	G *graph.Graph

	// byType caches per-relation edge lists for the hetero path.
	byType [][]int32
}

// New creates a DGL-style engine.
func New(e *nn.Engine, g *graph.Graph) *Engine { return &Engine{E: e, G: g} }

// UpdateAllCopySum is update_all(copy_src('h'), sum) — the GCN pattern —
// executed as one fused BinaryReduce kernel.
func (d *Engine) UpdateAllCopySum(h *nn.Variable) *nn.Variable {
	return d.E.Apply(&copySumFn{d: d}, "dgl.copy_sum", h)
}

type copySumFn struct{ d *Engine }

func (f *copySumFn) Forward(ctx *nn.FuncCtx, in ...*tensor.Tensor) *tensor.Tensor {
	return kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: in[0], Kind: kernels.KSrc}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, true, "dgl.copy_sum")
}

func (f *copySumFn) Backward(ctx *nn.FuncCtx, g *tensor.Tensor) []*tensor.Tensor {
	dh := kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: g, Kind: kernels.KDst}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, false, "dgl.copy_sum.bwd")
	return []*tensor.Tensor{dh}
}

// UpdateAllUMulESum is update_all(u_mul_e('h','a'), sum) — the GAT
// aggregation — as a fused BinaryReduce kernel.
func (d *Engine) UpdateAllUMulESum(h, e *nn.Variable) *nn.Variable {
	return d.E.Apply(&uMulESumFn{d: d}, "dgl.u_mul_e_sum", h, e)
}

type uMulESumFn struct{ d *Engine }

func (f *uMulESumFn) Forward(ctx *nn.FuncCtx, in ...*tensor.Tensor) *tensor.Tensor {
	ctx.SaveRef("h", in[0])
	ctx.SaveRef("e", in[1])
	return kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: in[0], Kind: kernels.KSrc},
		kernels.Operand{T: in[1], Kind: kernels.KEdge},
		kernels.BMul, gir.AggSum, true, "dgl.u_mul_e_sum")
}

func (f *uMulESumFn) Backward(ctx *nn.FuncCtx, g *tensor.Tensor) []*tensor.Tensor {
	h, e := ctx.Saved("h"), ctx.Saved("e")
	dh := kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: g, Kind: kernels.KDst},
		kernels.Operand{T: e, Kind: kernels.KEdge},
		kernels.BMul, gir.AggSum, false, "dgl.u_mul_e_sum.dh")
	var de *tensor.Tensor
	if e.Cols() == 1 && h.Cols() > 1 {
		de = kernels.EdgeBinary(f.d.E.Dev, f.d.G,
			kernels.Operand{T: h, Kind: kernels.KSrc},
			kernels.Operand{T: g, Kind: kernels.KDst},
			kernels.BDot, "dgl.u_mul_e_sum.de")
	} else {
		de = kernels.EdgeBinary(f.d.E.Dev, f.d.G,
			kernels.Operand{T: h, Kind: kernels.KSrc},
			kernels.Operand{T: g, Kind: kernels.KDst},
			kernels.BMul, "dgl.u_mul_e_sum.de")
	}
	ctx.Engine.AllocBytes(int64(de.Size()) * 4)
	return []*tensor.Tensor{dh, de}
}

// ApplyEdgesUAddV is apply_edges(u_add_v('a','b')), materializing an
// [M, d] edge tensor (the step whose memory PyG-style systems multiply).
func (d *Engine) ApplyEdgesUAddV(a, b *nn.Variable) *nn.Variable {
	return d.E.Apply(&uAddVFn{d: d}, "dgl.u_add_v", a, b)
}

type uAddVFn struct{ d *Engine }

func (f *uAddVFn) Forward(ctx *nn.FuncCtx, in ...*tensor.Tensor) *tensor.Tensor {
	return kernels.EdgeBinary(f.d.E.Dev, f.d.G,
		kernels.Operand{T: in[0], Kind: kernels.KSrc},
		kernels.Operand{T: in[1], Kind: kernels.KDst},
		kernels.BAdd, "dgl.u_add_v")
}

func (f *uAddVFn) Backward(ctx *nn.FuncCtx, g *tensor.Tensor) []*tensor.Tensor {
	da := kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: g, Kind: kernels.KEdge}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, false, "dgl.u_add_v.da")
	db := kernels.BinaryReduce(f.d.E.Dev, f.d.G,
		kernels.Operand{T: g, Kind: kernels.KEdge}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, true, "dgl.u_add_v.db")
	return []*tensor.Tensor{da, db}
}

// EdgeSoftmax normalizes an [M, d] edge tensor per destination vertex —
// DGL's fn.edge_softmax, lowered to four minigun kernels (max, sub-exp,
// sum, div) plus three in the backward pass.
func (d *Engine) EdgeSoftmax(e *nn.Variable) *nn.Variable {
	return d.E.Apply(&edgeSoftmaxFn{d: d}, "dgl.edge_softmax", e)
}

type edgeSoftmaxFn struct{ d *Engine }

func (f *edgeSoftmaxFn) Forward(ctx *nn.FuncCtx, in ...*tensor.Tensor) *tensor.Tensor {
	dev, g := f.d.E.Dev, f.d.G
	e := in[0]
	mx := kernels.BinaryReduce(dev, g,
		kernels.Operand{T: e, Kind: kernels.KEdge}, kernels.Operand{},
		kernels.BLeft, gir.AggMax, true, "dgl.esm.max")
	shifted := kernels.EdgeBinary(dev, g,
		kernels.Operand{T: e, Kind: kernels.KEdge},
		kernels.Operand{T: mx, Kind: kernels.KDst},
		kernels.BSub, "dgl.esm.sub")
	ex := tensor.Exp(shifted)
	f.d.E.ChargeDense("dgl.esm.exp", float64(ex.Size()), int64(ex.Size())*4, int64(ex.Size())*4)
	s := kernels.BinaryReduce(dev, g,
		kernels.Operand{T: ex, Kind: kernels.KEdge}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, true, "dgl.esm.sum")
	a := kernels.EdgeBinary(dev, g,
		kernels.Operand{T: ex, Kind: kernels.KEdge},
		kernels.Operand{T: s, Kind: kernels.KDst},
		kernels.BDiv, "dgl.esm.div")
	ctx.Save("a", a)
	return a
}

func (f *edgeSoftmaxFn) Backward(ctx *nn.FuncCtx, g *tensor.Tensor) []*tensor.Tensor {
	dev, gg := f.d.E.Dev, f.d.G
	a := ctx.Saved("a")
	prod := tensor.Mul(a, g)
	f.d.E.ChargeDense("dgl.esm.bwd.mul", float64(prod.Size()), int64(prod.Size())*8, int64(prod.Size())*4)
	r := kernels.BinaryReduce(dev, gg,
		kernels.Operand{T: prod, Kind: kernels.KEdge}, kernels.Operand{},
		kernels.BLeft, gir.AggSum, true, "dgl.esm.bwd.sum")
	diff := kernels.EdgeBinary(dev, gg,
		kernels.Operand{T: g, Kind: kernels.KEdge},
		kernels.Operand{T: r, Kind: kernels.KDst},
		kernels.BSub, "dgl.esm.bwd.sub")
	de := tensor.Mul(a, diff)
	f.d.E.ChargeDense("dgl.esm.bwd.mul2", float64(de.Size()), int64(de.Size())*8, int64(de.Size())*4)
	return []*tensor.Tensor{de}
}
