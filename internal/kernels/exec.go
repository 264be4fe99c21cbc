package kernels

import (
	"fmt"
	"math"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// Inter holds cross-unit intermediate values during a plan execution.
// (Defined on Bindings rather than threaded through calls so that dense
// units and seastar units share one namespace.)
func (b *Bindings) Resolve(n *gir.Node) (*tensor.Tensor, error) {
	if n.Op != gir.OpLeaf {
		if t, ok := b.Inter[n]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("kernels: intermediate %%%d was not materialized", n.ID)
	}
	switch n.LeafKind {
	case gir.LeafSrcFeat, gir.LeafDstFeat:
		if t, ok := b.VFeat[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("kernels: vertex feature %q not bound", n.Key)
	case gir.LeafEdgeFeat:
		if t, ok := b.EFeat[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("kernels: edge feature %q not bound", n.Key)
	case gir.LeafParam:
		if t, ok := b.Params[n.Key]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("kernels: parameter %q not bound", n.Key)
	case gir.LeafGrad:
		if b.Grad == nil {
			return nil, fmt.Errorf("kernels: gradient not bound")
		}
		return b.Grad, nil
	case gir.LeafSaved:
		if n.Ref.Op == gir.OpLeaf {
			return b.Resolve(n.Ref)
		}
		if t, ok := b.Saved[n.Ref]; ok {
			return t, nil
		}
		return nil, fmt.Errorf("kernels: saved forward value %%%d not bound", n.Ref.ID)
	default:
		return nil, fmt.Errorf("kernels: unresolvable leaf %v", n)
	}
}

// Run executes the kernel over g, writing materialized node values into
// outs (pre-allocated [N,d] or [M,d] tensors; a D-typed one has a row per
// g.In row, which on a block is fewer than N). It only computes: a caller
// reproducing the paper's figures charges the launch with LaunchOnly. The
// CSR direction is chosen by the unit's aggregation direction (§6.3.4).
//
// Row chunks are partitioned by edge count and claimed by
// a persistent worker pool through an atomic counter — the CPU analogue
// of the paper's degree-sorting + dynamic-load-balancing design (§6.3.3).
// Scratch arenas and the row partition are cached on the Kernel, so a
// steady-state launch is allocation-free.
func (k *Kernel) Run(g *graph.Graph, b *Bindings, outs map[*gir.Node]*tensor.Tensor) error {
	sp := obs.Begin("kern", k.obsLabel)
	defer sp.End()
	csr := &g.In
	if k.Dir == gir.AggToSrc {
		if g.Out.Offsets == nil {
			return fmt.Errorf("kernels: unit %d aggregates to sources but the graph has no out-CSR", k.Unit.ID)
		}
		csr = &g.Out
	}
	if k.usesEdgeType && g.EdgeTypes == nil {
		return fmt.Errorf("kernels: unit %d needs edge types but the graph has none", k.Unit.ID)
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.resolve(b, outs); err != nil {
		return err
	}
	defer k.releaseResolved()

	n := csr.NumRows()
	if obs.Enabled() {
		obs.Add("kern", k.obsLabel, "rows", int64(n))
		if len(k.aggs) > 0 { // a row-only launch walks no edge
			obs.Add("kern", k.obsLabel, "edges", csr.Offsets[n])
		}
		var specialized int64
		if k.spec.stepFree() {
			specialized = 1
		}
		obs.Set("kern", k.obsLabel, "specialized", specialized)
	}
	serial := sched.MaxProcs == 1 || k.cpuWork(csr) < serialCPUThreshold
	if serial {
		// Serial fast path: the fan-out overhead exceeds the work.
		a := k.arena(0)
		k.runSweep(a, 0, g.N)
		k.runRowsSpec(a, csr, g, 0, n)
	} else {
		ranges := k.partition(csr)
		workers := sched.Workers(len(ranges))
		for len(k.arenas) < workers {
			k.arenas = append(k.arenas, nil) // grown serially; see arena
		}
		if len(k.nbrMats) > 0 {
			// Per-vertex sweep for neighbour-typed materializations:
			// uniform vertex chunks, each vertex written by exactly one
			// worker.
			sweep := sched.Uniform(g.N, workers)
			sched.Do(len(sweep), workers, func(w, c int) {
				r := sweep[c]
				k.runSweep(k.arena(w), r.Lo, r.Hi)
			})
		}
		sched.Do(len(ranges), workers, func(w, c int) {
			r := ranges[c]
			k.runRowsSpec(k.arena(w), csr, g, r.Lo, r.Hi)
		})
	}
	return nil
}

// resolve binds all leaf tensors into the kernel's reused slices.
// Callers hold k.mu.
func (k *Kernel) resolve(b *Bindings, outs map[*gir.Node]*tensor.Tensor) error {
	if k.rowT == nil {
		k.rowT = make([]*tensor.Tensor, len(k.rowLeaves))
		k.edgeT = make([]*tensor.Tensor, len(k.edgeLeaves))
		k.constT = make([]*tensor.Tensor, len(k.constLeaves))
		k.matT = make([]*tensor.Tensor, len(k.mats))
		k.nbrMatT = make([]*tensor.Tensor, len(k.nbrMats))
		k.paramT = make(map[*gir.Node]*tensor.Tensor)
	}
	for i, ld := range k.rowLeaves {
		t, err := b.Resolve(ld.node)
		if err != nil {
			return err
		}
		k.rowT[i] = t
	}
	for i, ld := range k.edgeLeaves {
		t, err := b.Resolve(ld.node)
		if err != nil {
			return err
		}
		k.edgeT[i] = t
	}
	for i, ld := range k.constLeaves {
		t, err := b.Resolve(ld.node)
		if err != nil {
			return err
		}
		k.constT[i] = t
	}
	for _, stage := range [3][]step{k.preRow, k.edge, k.post} {
		for _, st := range stage {
			if st.param == nil {
				continue
			}
			t, err := b.Resolve(st.param)
			if err != nil {
				return err
			}
			k.paramT[st.param] = t
		}
	}
	for i, m := range k.mats {
		t, ok := outs[m.node]
		if !ok {
			return fmt.Errorf("kernels: no output tensor for materialized %%%d", m.node.ID)
		}
		k.matT[i] = t
	}
	for i, m := range k.nbrMats {
		t, ok := outs[m.node]
		if !ok {
			return fmt.Errorf("kernels: no output tensor for materialized %%%d", m.node.ID)
		}
		k.nbrMatT[i] = t
	}
	// Raw data views for the VM: direct slices skip the per-edge Row()
	// call in the gather loop.
	if k.specLeafData == nil {
		k.specLeafData = make([][]float32, len(k.edgeLeaves))
		k.specWd = make([][]float32, len(k.spec.terms))
		k.specMatData = make([][]float32, len(k.mats))
	}
	for i, t := range k.edgeT {
		k.specLeafData[i] = t.Data()
	}
	for ti, t := range k.spec.terms {
		if t.kind == termTyped {
			k.specWd[ti] = k.paramT[t.param].Data()
		}
	}
	for _, m := range k.spec.edgeMats {
		// Row eid of an [M, w] tensor starts at element eid·w.
		k.specMatData[m.mat] = k.matT[m.mat].Data()
	}
	return nil
}

// releaseResolved drops tensor references after a launch, the kernel's
// and its arenas', so the kernel does not pin freed buffers across
// iterations.
func (k *Kernel) releaseResolved() {
	for _, a := range k.arenas {
		if a != nil {
			a.unbind(k)
		}
	}
	for i := range k.rowT {
		k.rowT[i] = nil
	}
	for i := range k.edgeT {
		k.edgeT[i] = nil
	}
	for i := range k.constT {
		k.constT[i] = nil
	}
	for i := range k.matT {
		k.matT[i] = nil
	}
	for i := range k.nbrMatT {
		k.nbrMatT[i] = nil
	}
	for p := range k.paramT {
		k.paramT[p] = nil
	}
	for i := range k.specLeafData {
		k.specLeafData[i] = nil
	}
	for i := range k.specWd {
		k.specWd[i] = nil
	}
	for i := range k.specMatData {
		k.specMatData[i] = nil
	}
}

// partition returns (and caches) the row chunking for csr.
func (k *Kernel) partition(csr *graph.CSR) []sched.Range {
	if k.rangeCSR == csr && k.rangeProcs == sched.MaxProcs && k.ranges != nil {
		return k.ranges
	}
	rs := Partition(csr, sched.MaxProcs)
	k.rangeCSR, k.rangeProcs, k.ranges = csr, sched.MaxProcs, rs
	return rs
}

const (
	// rowCostEdges is a row's fixed overhead (leaf loads, pre/post
	// stages, output writes) expressed in per-edge cost units, so empty
	// and low-degree rows still carry weight in the partition.
	rowCostEdges = 4
	// chunksPerWorker oversubscribes chunks relative to workers so the
	// stealing loop can rebalance; more chunks mean finer balance at
	// the price of more atomic claims.
	chunksPerWorker = 8
)

// Partition returns the row chunking Run uses on csr for the given
// worker count: rows split by edge count using the CSR offsets — the CPU
// analogue of degree sorting + dynamic load balancing (§6.3.3). Chunk
// boundaries never change which rows reduce together, so every worker
// count computes bitwise-identical results.
func Partition(csr *graph.CSR, workers int) []sched.Range {
	return sched.EdgeBalanced(csr.Offsets, rowCostEdges, sched.Oversubscribe(workers, chunksPerWorker))
}

// runArena is one worker's private state. Arenas are cached on the
// Kernel (indexed by worker slot) so steady-state launches reuse them
// instead of reallocating slot storage and accumulators per chunk.
type runArena struct {
	// slots is the row slot table the row stages and the neighbour sweep
	// read and write, one entry per kernel slot, bound where its value
	// lies: a row or sweep leaf's slot is its tensor row and a value a row
	// or sweep step materializes is its output row (both rebound per
	// row); a const leaf's slot is the launch's bound data (bound per
	// chunk); an aggregate's slot is its accumulator. Every other slot
	// owns its storage.
	slots [][]float32
	// accs are the aggregate slots; inner the per-type accumulators of
	// hierarchical aggregates.
	accs, inner [][]float32
	// svals is the VM's flat scalar bank: width-1 loads, row-hoisted
	// scalars and chain-closure outputs, indexed by the plan.
	svals []float32
	// tstate is the VM's per-term runtime view (accumulator target, raw
	// data slices), rebuilt per chunk; batched terms keep a permanent
	// specBlock-sized scale buffer in their slot.
	tstate []specTermState
	// prog and rowProg are the launch-bound edge and row programs,
	// rebuilt per chunk from the plan's static instructions.
	prog, rowProg []specOp
	// cols holds the per-block edge columns, one specBlock-wide slice per
	// bank slot carrying a per-edge value; wcols one specBlock × w column
	// per opStep (a width-1 step's is also its bank column).
	cols, wcols [][]float32
	// view is the slot table opSteps hand evalStep: each operand slot
	// points at its value's storage in place, rebound per edge — which the
	// row stages must not see, so it is not slots.
	view [][]float32
}

// arena returns worker w's arena, creating it on first use. Growth of
// the arena slice itself happens serially in Run before dispatch; each
// slot is then touched by exactly one worker per launch.
func (k *Kernel) arena(w int) *runArena {
	for len(k.arenas) <= w {
		k.arenas = append(k.arenas, nil)
	}
	a := k.arenas[w]
	if a == nil {
		a = &runArena{
			slots: make([][]float32, k.numSlots),
			accs:  make([][]float32, len(k.aggs)),
			inner: make([][]float32, len(k.aggs)),
		}
		for i, w := range k.widths {
			a.slots[i] = make([]float32, w)
		}
		for i, ag := range k.aggs {
			a.accs[i] = a.slots[ag.out]
			a.inner[i] = make([]float32, ag.node.Dim())
		}
		sp := k.spec
		a.svals = make([]float32, sp.nScalar)
		a.tstate = make([]specTermState, len(sp.terms))
		a.prog = make([]specOp, len(sp.prog))
		a.rowProg = make([]specOp, len(sp.rowProg))
		for ti := range sp.terms {
			if sp.terms[ti].batch {
				a.tstate[ti].buf = make([]float32, specBlock)
			}
		}
		a.cols = make([][]float32, sp.nScalar)
		a.wcols = make([][]float32, len(sp.steps))
		for si, ss := range sp.steps {
			a.wcols[si] = make([]float32, specBlock*ss.w)
			if ss.bank >= 0 {
				a.cols[ss.bank] = a.wcols[si]
			}
		}
		for i, col := range sp.colSlot {
			if col && a.cols[i] == nil {
				a.cols[i] = make([]float32, specBlock)
			}
		}
		a.view = make([][]float32, k.numSlots)
		k.arenas[w] = a
	}
	return a
}

// unbind drops a's views of the last launch's tensors: the slots bound
// where a value lies (row, sweep and const leaves, values written in
// place), the opStep operand views, the bound edge program's data and
// the terms' data. Every launch binds them again before reading them;
// slots that own their storage keep it. It costs O(slots).
func (a *runArena) unbind(k *Kernel) {
	for _, ld := range k.rowLeaves {
		a.slots[ld.slot] = nil
	}
	for _, ld := range k.constLeaves {
		a.slots[ld.slot] = nil
	}
	for _, li := range k.sweepLoads {
		a.slots[k.edgeLeaves[li].slot] = nil
	}
	for _, m := range k.mats {
		if m.inPlace {
			a.slots[m.slot] = nil
		}
	}
	for _, m := range k.nbrMats {
		a.slots[m.slot] = nil
	}
	clear(a.view)
	for i := range a.prog {
		a.prog[i].data = nil
	}
	for i := range a.tstate {
		a.tstate[i].data, a.tstate[i].wd = nil, nil
	}
}

// runSweep materializes neighbour-typed values for vertices [lo, hi):
// each vertex binds the slots of its own rows of the sweep leaves and of
// its materialized outputs, and re-derives the chain, whose steps write
// each output row in place. No-op when the kernel has no neighbour-typed
// materializations.
func (k *Kernel) runSweep(a *runArena, lo, hi int) {
	if len(k.nbrMats) == 0 {
		return
	}
	slots := a.slots
	for i, ld := range k.constLeaves {
		slots[ld.slot] = k.constT[i].Data()
	}
	for v := lo; v < hi; v++ {
		for _, li := range k.sweepLoads {
			slots[k.edgeLeaves[li].slot] = k.edgeT[li].Row(v)
		}
		for i, m := range k.nbrMats {
			slots[m.slot] = k.nbrMatT[i].Row(v)
		}
		for _, st := range k.sweepSteps {
			evalStep(st, slots, k.paramT, 0)
		}
	}
}

func outerKind(n *gir.Node) gir.AggKind {
	if n.Op == gir.OpAggHier {
		return n.Attr.OuterOp
	}
	return n.Attr.AggOp
}

func initAcc(acc []float32, kind gir.AggKind) {
	switch kind {
	case gir.AggMax:
		for i := range acc {
			acc[i] = float32(math.Inf(-1))
		}
	case gir.AggMin:
		for i := range acc {
			acc[i] = float32(math.Inf(1))
		}
	default:
		for i := range acc {
			acc[i] = 0
		}
	}
}

func accumulate(acc, val []float32, kind gir.AggKind, width int) {
	if width == 1 && len(acc) > 1 {
		// Scalar value broadcast across a wide accumulator.
		v := val[0]
		switch kind {
		case gir.AggMax:
			for j := range acc {
				if v > acc[j] {
					acc[j] = v
				}
			}
		case gir.AggMin:
			for j := range acc {
				if v < acc[j] {
					acc[j] = v
				}
			}
		default:
			for j := range acc {
				acc[j] += v
			}
		}
		return
	}
	val = val[:len(acc)]
	switch kind {
	case gir.AggMax:
		for j, v := range val {
			if v > acc[j] {
				acc[j] = v
			}
		}
	case gir.AggMin:
		for j, v := range val {
			if v < acc[j] {
				acc[j] = v
			}
		}
	default: // sum & mean accumulate sums: the unrolled/vectorized add
		tensor.VecAdd(acc, val)
	}
}

func foldInner(outer, inner []float32, kind gir.AggKind) {
	accumulate(outer, inner, kind, len(inner))
}

func finalizeAcc(acc []float32, n *gir.Node, deg int) {
	if deg == 0 {
		// Empty neighbourhoods produce zeros for every reduction, the
		// convention DGL uses for isolated vertices.
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	if n.Op == gir.OpAgg && n.Attr.AggOp == gir.AggMean {
		inv := 1 / float32(deg)
		for i := range acc {
			acc[i] *= inv
		}
	}
}

// fusedOp reports whether evalStep can run op: Compile rejects a unit
// with any other operator in a stage.
func fusedOp(op gir.OpKind) bool {
	switch op {
	case gir.OpEdgeView, gir.OpMatMulTyped, gir.OpMatMulTypedT:
		return true
	}
	return scalarClosureOp(op)
}

// evalStep computes one operator for the current (row, edge) context: the
// arm behind pre-row and post steps, the neighbour sweep and opStep.
func evalStep(st step, slots [][]float32, params map[*gir.Node]*tensor.Tensor, edgeType int) {
	n := st.node
	out := slots[st.out]
	w := len(out)
	in := func(i int) []float32 { return slots[st.ins[i]] }
	get := func(row []float32, j int) float32 {
		if len(row) == 1 {
			return row[0]
		}
		return row[j]
	}
	switch n.Op {
	case gir.OpAdd:
		a, b := in(0), in(1)
		if len(a) == w && len(b) == w {
			// Two full rows, a residual after an aggregation: no broadcast.
			for j := range out {
				out[j] = a[j] + b[j]
			}
			break
		}
		for j := 0; j < w; j++ {
			out[j] = get(a, j) + get(b, j)
		}
	case gir.OpSub:
		a, b := in(0), in(1)
		for j := 0; j < w; j++ {
			out[j] = get(a, j) - get(b, j)
		}
	case gir.OpMul:
		a, b := in(0), in(1)
		for j := 0; j < w; j++ {
			out[j] = get(a, j) * get(b, j)
		}
	case gir.OpDiv:
		a, b := in(0), in(1)
		for j := 0; j < w; j++ {
			out[j] = get(a, j) / get(b, j)
		}
	case gir.OpNeg:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = -get(a, j)
		}
	case gir.OpExp:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = float32(math.Exp(float64(get(a, j))))
		}
	case gir.OpLog:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = float32(math.Log(float64(get(a, j))))
		}
	case gir.OpLeakyReLU:
		a := in(0)
		s := n.Attr.Slope
		for j := 0; j < w; j++ {
			v := get(a, j)
			if v < 0 {
				v *= s
			}
			out[j] = v
		}
	case gir.OpReLU: // a unary op's input is as wide as its output
		for j, v := range in(0)[:w] {
			if !(v > 0) {
				v = 0 // NaN and -0 too, as tensor.ReLU
			}
			out[j] = v
		}
	case gir.OpSigmoid:
		for j, v := range in(0)[:w] {
			out[j] = 1 / (1 + float32(math.Exp(float64(-v))))
		}
	case gir.OpTanh:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = float32(math.Tanh(float64(get(a, j))))
		}
	case gir.OpMulConst:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = n.Attr.C * get(a, j)
		}
	case gir.OpAddConst:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = n.Attr.C + get(a, j)
		}
	case gir.OpLeakyReLUGrad:
		x, g := in(0), in(1)
		s := n.Attr.Slope
		for j := 0; j < w; j++ {
			if get(x, j) > 0 {
				out[j] = get(g, j)
			} else {
				out[j] = s * get(g, j)
			}
		}
	case gir.OpReLUGrad: // x, g and the gradient are one width
		x, g := in(0)[:w], in(1)[:w]
		for j, gv := range g {
			if !(x[j] > 0) {
				gv = 0
			}
			out[j] = gv
		}
	case gir.OpSigmoidGrad:
		y, g := in(0), in(1)
		for j := 0; j < w; j++ {
			yv := get(y, j)
			out[j] = get(g, j) * yv * (1 - yv)
		}
	case gir.OpTanhGrad:
		y, g := in(0), in(1)
		for j := 0; j < w; j++ {
			yv := get(y, j)
			out[j] = get(g, j) * (1 - yv*yv)
		}
	case gir.OpRowSum:
		a := in(0)
		var s float32
		for _, v := range a {
			s += v
		}
		out[0] = s
	case gir.OpEdgeView:
		a := in(0)
		for j := 0; j < w; j++ {
			out[j] = get(a, j)
		}
	case gir.OpMatMulTyped:
		x := in(0)
		wt := params[st.param]
		dims := st.param.Shape // [R, in, out]
		din, dout := dims[1], dims[2]
		base := edgeType * din * dout
		wd := wt.Data()
		for o := 0; o < dout; o++ {
			var s float32
			for i := 0; i < din; i++ {
				s += get(x, i) * wd[base+i*dout+o]
			}
			out[o] = s
		}
	case gir.OpMatMulTypedT:
		gRow := in(0)
		wt := params[st.param]
		dims := st.param.Shape
		din, dout := dims[1], dims[2]
		base := edgeType * din * dout
		wd := wt.Data()
		for i := 0; i < din; i++ {
			var s float32
			for o := 0; o < dout; o++ {
				s += get(gRow, o) * wd[base+i*dout+o]
			}
			out[i] = s
		}
	default:
		panic(fmt.Sprintf("kernels: op %s reached evalStep past Compile", n.Op))
	}
}
