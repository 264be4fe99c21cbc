package kernels

import (
	"math"

	"seastar/internal/device"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// OperandKind says which index space a baseline-kernel operand lives in.
type OperandKind int

const (
	// KSrc operands are [N,d] vertex tensors read at the edge's source.
	KSrc OperandKind = iota
	// KDst operands are [N,d] vertex tensors read at the edge's
	// destination.
	KDst
	// KEdge operands are [M,d] edge tensors read by edge id.
	KEdge
)

// Operand pairs a tensor with its index space.
type Operand struct {
	T    *tensor.Tensor
	Kind OperandKind
}

// BinOp is the binary operator applied by baseline kernels.
type BinOp int

const (
	// BLeft ignores the right operand (copy).
	BLeft BinOp = iota
	BAdd        // x + y
	BSub        // x - y
	BMul        // x * y
	BDiv        // x / y
	// BDot reduces the two operand rows to their inner product (width 1
	// output), used by attention backward kernels.
	BDot
)

func applyBin(op BinOp, out, l, r []float32) {
	get := func(row []float32, j int) float32 {
		if len(row) == 1 {
			return row[0]
		}
		return row[j]
	}
	switch op {
	case BLeft:
		for j := range out {
			out[j] = get(l, j)
		}
	case BAdd:
		for j := range out {
			out[j] = get(l, j) + get(r, j)
		}
	case BSub:
		for j := range out {
			out[j] = get(l, j) - get(r, j)
		}
	case BMul:
		for j := range out {
			out[j] = get(l, j) * get(r, j)
		}
	case BDiv:
		for j := range out {
			out[j] = get(l, j) / get(r, j)
		}
	case BDot:
		var s float32
		n := len(l)
		if len(r) > n {
			n = len(r)
		}
		for j := 0; j < n; j++ {
			s += get(l, j) * get(r, j)
		}
		out[0] = s
	}
}

func operandRow(o Operand, src, dst, eid int) []float32 {
	switch o.Kind {
	case KSrc:
		return o.T.Row(src)
	case KDst:
		return o.T.Row(dst)
	default:
		return o.T.Row(eid)
	}
}

func operandWidth(o Operand) int {
	if o.T == nil {
		return 0
	}
	return o.T.Cols()
}

func round32(w int) int {
	if w < 32 {
		return 32
	}
	if w > 256 {
		return 256
	}
	return ((w + 31) / 32) * 32
}

// minigunLaunch models DGL/minigun's edge-parallel execution (§6.3): one
// thread block per edge with threads mapped to the feature dimension, a
// per-edge binary search over the vertex offset array to recover the
// destination id, and (for reductions) atomic read-modify-write
// aggregation. The search costs O(log N) serialized instructions and
// offset loads; atomics double store traffic and serialize on the hottest
// destination row.
func minigunLaunch(g *graph.Graph, name string, width int,
	loadPerEdge, storePerEdge int64, instrPerElem float64, atomic bool) device.Launch {
	return MinigunLaunch(g, name, width, loadPerEdge, storePerEdge, instrPerElem, atomic, g.M)
}

// MinigunLaunch builds the cost record of a minigun-style edge-parallel
// kernel over `edges` edges (callers working on per-relation subgraphs
// pass the subset size). Exported for the baseline heterogeneous layers.
func MinigunLaunch(g *graph.Graph, name string, width int,
	loadPerEdge, storePerEdge int64, instrPerElem float64, atomic bool, edges int) device.Launch {

	tpb := round32(width)
	searchSteps := math.Log2(float64(g.N) + 2)
	perBlock := searchSteps*3 + instrPerElem*float64(ceilDiv(width, tpb)) + 4

	active := float64(width) / float64(tpb)
	if active > 1 {
		active = 1
	}
	l := device.Launch{
		Name:               name,
		Blocks:             edges,
		ThreadsPerBlock:    tpb,
		UniformBlockCycles: perBlock,
		LoadBytes:          int64(edges) * (loadPerEdge + int64(searchSteps*8)),
		StoreBytes:         int64(edges) * storePerEdge,
		Sched:              device.SchedHardware,
		ActiveThreadFrac:   active,
	}
	if atomic {
		l.StoreBytes *= 2 // read-modify-write
		l.AtomicOps = int64(g.In.MaxDegree()) * int64(width)
	}
	return l
}

// EdgeBinary materializes out[e] = op(l(e), r(e)) as an [M, d] edge tensor
// using a minigun-style kernel (DGL's apply_edges). Pass Operand{} as r
// for unary copies.
func EdgeBinary(dev *device.Device, g *graph.Graph, l, r Operand, op BinOp, name string) *tensor.Tensor {
	width := operandWidth(l)
	if w := operandWidth(r); w > width {
		width = w
	}
	if op == BDot {
		width = 1
	}
	out := tensor.New(g.M, width)
	forEachEdge(g, func(src, dst, eid int) {
		var rr []float32
		if r.T != nil {
			rr = operandRow(r, src, dst, eid)
		}
		applyBin(op, out.Row(eid), operandRow(l, src, dst, eid), rr)
	})
	loadB := int64(operandWidth(l)+operandWidth(r)) * 4
	dev.LaunchKernel(minigunLaunch(g, name, width, loadB, int64(width)*4, 2, false))
	return out
}

// BinaryReduce computes red_{e incident to t}( op(l(e), r(e)) ) for every
// target vertex t without materializing the edge values — DGL's fused
// BinaryReduce kernel (§2.3) — but with minigun's edge-parallel atomic
// execution strategy. toDst selects reduction to destinations (forward)
// or sources (backward).
func BinaryReduce(dev *device.Device, g *graph.Graph, l, r Operand, op BinOp,
	red gir.AggKind, toDst bool, name string) *tensor.Tensor {

	width := operandWidth(l)
	if w := operandWidth(r); w > width {
		width = w
	}
	if op == BDot {
		width = 1
	}
	out := tensor.New(g.N, width)
	if red == gir.AggMax || red == gir.AggMin {
		init := float32(math.Inf(-1))
		if red == gir.AggMin {
			init = float32(math.Inf(1))
		}
		out.Fill(init)
	}
	counts := make([]int32, g.N)
	row := make([]float32, width)
	// Deterministic functional evaluation: accumulate per CSR row.
	csr, ids := &g.In, []int32(nil) // an in-CSR's slots are its edge ids
	if !toDst {
		csr, ids = &g.Out, g.Out.EdgeIDs
	}
	for k := 0; k < csr.NumRows(); k++ {
		t := int(csr.RowIDs[k])
		nbrs := csr.Row(k)
		or := out.Row(t)
		for i := range nbrs {
			src, dst := int(nbrs[i]), t
			if !toDst {
				src, dst = t, int(nbrs[i])
			}
			eid := int(csr.Offsets[k]) + i
			if ids != nil {
				eid = int(ids[eid])
			}
			var rr []float32
			if r.T != nil {
				rr = operandRow(r, src, dst, eid)
			}
			applyBin(op, row, operandRow(l, src, dst, eid), rr)
			counts[t]++
			switch red {
			case gir.AggMax:
				for j := range or {
					if row[j] > or[j] {
						or[j] = row[j]
					}
				}
			case gir.AggMin:
				for j := range or {
					if row[j] < or[j] {
						or[j] = row[j]
					}
				}
			default:
				for j := range or {
					or[j] += row[j]
				}
			}
		}
	}
	for v := 0; v < g.N; v++ {
		if counts[v] == 0 {
			for j, or := 0, out.Row(v); j < width; j++ {
				or[j] = 0
			}
		} else if red == gir.AggMean {
			inv := 1 / float32(counts[v])
			for j, or := 0, out.Row(v); j < width; j++ {
				or[j] *= inv
			}
		}
	}
	loadB := int64(operandWidth(l)+operandWidth(r)) * 4
	dev.LaunchKernel(minigunLaunch(g, name, width, loadB, int64(width)*4, 2, true))
	return out
}

func forEachEdge(g *graph.Graph, f func(src, dst, eid int)) {
	for e := 0; e < g.M; e++ {
		f(int(g.Srcs[e]), int(g.Dsts[e]), e)
	}
}

// Gather materializes the PyG-style edge tensor out[e] = x[index(e)]
// using explicit edge-index arrays (no binary search): the scatter/gather
// programming model of §2.3 whose memory use is proportional to edges.
func Gather(dev *device.Device, g *graph.Graph, x *tensor.Tensor, fromSrc bool, name string) *tensor.Tensor {
	width := x.Cols()
	out := tensor.New(g.M, width)
	idx := g.Srcs
	if !fromSrc {
		idx = g.Dsts
	}
	for e := 0; e < g.M; e++ {
		copy(out.Row(e), x.Row(int(idx[e])))
	}
	elems := g.M * width
	dev.LaunchKernel(device.Launch{
		Name:               name,
		Blocks:             ceilDiv(elems, 256),
		ThreadsPerBlock:    256,
		UniformBlockCycles: 256 / 32 * 2,
		LoadBytes:          int64(elems)*4 + int64(g.M)*4,
		StoreBytes:         int64(elems) * 4,
	})
	return out
}

// ScatterSum reduces a [M, d] edge tensor onto its destination (or
// source) vertices with atomic adds — PyG's scatter_add.
func ScatterSum(dev *device.Device, g *graph.Graph, e *tensor.Tensor, toDst bool, name string) *tensor.Tensor {
	width := e.Cols()
	out := tensor.New(g.N, width)
	csr, ids := &g.In, []int32(nil) // an in-CSR's slots are its edge ids
	if !toDst {
		csr, ids = &g.Out, g.Out.EdgeIDs
	}
	for k := 0; k < csr.NumRows(); k++ {
		t := int(csr.RowIDs[k])
		or := out.Row(t)
		for s := csr.Offsets[k]; s < csr.Offsets[k+1]; s++ {
			eid := int(s)
			if ids != nil {
				eid = int(ids[s])
			}
			er := e.Row(eid)
			for j := range or {
				or[j] += er[j]
			}
		}
	}
	elems := g.M * width
	maxDeg := csr.MaxDegree()
	dev.LaunchKernel(device.Launch{
		Name:               name,
		Blocks:             ceilDiv(elems, 256),
		ThreadsPerBlock:    256,
		UniformBlockCycles: 256 / 32 * 3,
		LoadBytes:          int64(elems)*4 + int64(g.M)*4,
		StoreBytes:         int64(elems) * 4 * 2, // atomic RMW
		AtomicOps:          int64(maxDeg) * int64(width),
	})
	return out
}
