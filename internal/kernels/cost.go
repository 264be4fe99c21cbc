package kernels

import (
	"strconv"

	"seastar/internal/device"
	"seastar/internal/gir"
	"seastar/internal/graph"
)

// opCycles is the per-element arithmetic cost of an operator in core
// cycles; transcendentals and division run on the SFU at ~4x cost.
func opCycles(op gir.OpKind) float64 {
	switch op {
	case gir.OpExp, gir.OpLog, gir.OpSigmoid, gir.OpTanh, gir.OpDiv,
		gir.OpSigmoidGrad, gir.OpTanhGrad:
		return 4
	default:
		return 1
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// stageCycles is the serialized cycle count of executing a step list once
// with FAT groups of size gs: each element-parallel loop costs
// ceil(width/gs) iterations.
func stageCycles(steps []step, gs int) float64 {
	var c float64
	for _, st := range steps {
		n := st.node
		switch n.Op {
		case gir.OpMatMulTyped, gir.OpMatMulTypedT:
			din, dout := st.param.Shape[1], st.param.Shape[2]
			c += float64(ceilDiv(din*dout, gs))
		case gir.OpRowSum:
			// Intra-group tree reduction: ceil(width/gs) + log2(gs).
			c += float64(ceilDiv(n.Inputs[0].Dim(), gs)) + log2i(gs)
		default:
			c += opCycles(n.Op) * float64(ceilDiv(n.Dim(), gs))
		}
	}
	return c
}

func log2i(x int) float64 {
	var l float64
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

// serialCPUThreshold is the abstract-cycle cost below which Run skips
// the worker fan-out entirely: roughly the scalar work that amortizes a
// round of goroutine handoffs.
const serialCPUThreshold = 1 << 15

// specEdgeFactor is how much cheaper one edge of a step-free plan is than
// one edge run through evalStep in the serial-threshold model: the closure
// compiler removes the per-edge op dispatch, operand resolution and leaf
// staging copies, measured at 3-5x per unit (EXPERIMENTS.md, fused-kernel
// section). A conservative 3 keeps small step-free launches on the serial
// path longer, where they belong.
const specEdgeFactor = 3

// cpuWork estimates the serialized cost of one launch in abstract cycles
// (group size 1) from the same per-edge/per-row model as the GPU cost
// function; it gates the serial fast path. An aggregating plan with no
// opStep discounts the per-edge term by specEdgeFactor; a row-only unit
// keeps the undiscounted term, so its serial/parallel choice is the one
// it made before it ran on the VM.
func (k *Kernel) cpuWork(csr *graph.CSR) float64 {
	perEdge := stageCycles(k.edge, 1) + 2
	for _, a := range k.aggs {
		perEdge += float64(a.node.Dim())
	}
	if len(k.aggs) > 0 && k.spec.stepFree() {
		perEdge /= specEdgeFactor
	}
	perRow := stageCycles(k.preRow, 1) + stageCycles(k.post, 1) + 8
	for _, ld := range k.rowLeaves {
		perRow += float64(ld.node.Dim())
	}
	return float64(len(csr.Nbrs))*perEdge + float64(csr.NumRows())*perRow
}

// LaunchOnly charges one launch of the kernel over g to dev without
// computing values. It is the only way a fused unit is charged: the
// training runtime calls it after each Run when its engine has a device,
// and Figure 12's microbenchmark calls it alone.
func (k *Kernel) LaunchOnly(dev *device.Device, g *graph.Graph, cfg Config) {
	cfg = cfg.withDefaults()
	csr := &g.In
	if k.Dir == gir.AggToSrc {
		csr = &g.Out
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	dev.LaunchKernel(k.launch(csr, cfg))
}

// launch assembles the device.Launch record for this kernel on csr —
// the costed half of Algorithm 1. Callers hold k.mu.
func (k *Kernel) launch(csr *graph.CSR, cfg Config) device.Launch {
	gs := groupSize(cfg, k.MaxWidth())
	groupsPerBlock := cfg.BlockSize / gs
	if groupsPerBlock < 1 {
		groupsPerBlock = 1
	}
	n := csr.NumRows()
	blocks := ceilDiv(n, groupsPerBlock)

	// Per-edge serialized work: edge-stage ops, aggregation adds, plus
	// the pipelined CSR index loads (edge id + neighbour id).
	perEdge := stageCycles(k.edge, gs) + 2
	for _, a := range k.aggs {
		perEdge += float64(ceilDiv(a.node.Dim(), gs))
	}
	// Per-row work: row-leaf loads into registers, pre/post stages,
	// offset reads and output writes.
	perRow := stageCycles(k.preRow, gs) + stageCycles(k.post, gs) + 8
	for _, ld := range k.rowLeaves {
		perRow += float64(ceilDiv(ld.node.Dim(), gs))
	}

	// The cycle buffer is reused across launches (the device consumes it
	// synchronously): at 1 block per vertex it would otherwise dominate
	// the allocation profile of every training step.
	if cap(k.launchBuf) < blocks {
		k.launchBuf = make([]float64, blocks)
	}
	blockCycles := k.launchBuf[:blocks]
	for b := 0; b < blocks; b++ {
		lo := b * groupsPerBlock
		hi := lo + groupsPerBlock
		if hi > n {
			hi = n
		}
		var maxW float64
		for r := lo; r < hi; r++ {
			w := float64(csr.Degree(r))*perEdge + perRow
			if w > maxW {
				maxW = w
			}
		}
		blockCycles[b] = maxW
	}

	// Memory traffic: coalesced by construction (§6.3.1). Destination
	// (row) features are loaded once per row — the locality-centric win —
	// while neighbour and edge features are loaded once per edge.
	var rowLeafB, edgeLeafB, matRowB, matEdgeB int64
	for _, ld := range k.rowLeaves {
		rowLeafB += int64(ld.node.Dim()) * 4
	}
	for _, ld := range k.edgeLeaves {
		edgeLeafB += int64(ld.node.Dim()) * 4
	}
	for _, m := range k.mats {
		if m.perEdge {
			matEdgeB += int64(m.node.Dim()) * 4
		} else {
			matRowB += int64(m.node.Dim()) * 4
		}
	}
	m := int64(len(csr.Nbrs))
	loadB := int64(n)*(rowLeafB+8) + m*(edgeLeafB+8)
	if k.usesEdgeType {
		loadB += m * 4
	}
	storeB := int64(n)*matRowB + m*matEdgeB

	// Active threads: each of the block's groups keeps min(width, gs)
	// lanes busy; Basic (one vertex per block) leaves the rest idle.
	active := float64(groupsPerBlock) * float64(min(k.MaxWidth(), gs)) / float64(cfg.BlockSize)
	if active > 1 {
		active = 1
	}
	return device.Launch{
		Name:             "seastar.unit" + strconv.Itoa(k.Unit.ID),
		Blocks:           blocks,
		ThreadsPerBlock:  cfg.BlockSize,
		BlockCycles:      blockCycles,
		LoadBytes:        loadB,
		StoreBytes:       storeB,
		Sched:            cfg.Sched,
		ActiveThreadFrac: active,
	}
}
