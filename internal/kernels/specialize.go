package kernels

// The per-unit closure compiler (DESIGN.md §12): at Compile time, the
// edge stage of a fused seastar unit is pattern-matched against a small
// grammar and lowered into a columnar edge program — the kernel VM — that
// runs the whole edge loop in one pass: op dispatch, operand resolution
// and feature-dim bounds checks hoisted out of the inner loop, per-edge
// scalars held in block columns, and the wide work routed through
// tensor.GatherDot / VecAdd / VecMulAdd / GatherMulAdd (AVX2 on capable
// hosts). Every unit runs on it; there is no other row loop.
//
// The grammar over one edge iteration is
//
//	edge   := load* dot* (chain | step)* mat* term*
//	load   := scalar edge-leaf → scalar bank          (eu, norm, saved α, …)
//	dot    := RowSum(Mul(A, B)) → scalar bank         (per-edge dot, GAT backward)
//	chain  := scalar op over the scalar bank          (Add, LeakyReLU, Exp, Div, grads, …)
//	step   := any other edge op → block column        (MatMulTypedT, wide chains, …)
//	mat    := scalar bank | step column → per-edge materialization
//	term   := agg ⊕= scalar                           (GAT edge-softmax sums)
//	        | agg ⊕= W                                (plain gather)
//	        | agg ⊕= scalar · W                       (GCN/GAT weighted gather)
//	        | agg ⊕= [scalar ·] MatMulTyped(W)        (R-GCN per-relation transform, sum folds)
//	A, B, W := leaf[nbr|eid] | row-constant wide | step column (W only)
//
// Wide operands are read in place, never staged: leaf[nbr|eid] is a row
// of a bound tensor selected by the CSR's own neighbour or edge ids, a
// row-constant wide vector (row leaf, const leaf, pre-row output) is the
// same row for every edge, and a step column holds row j for the block's
// edge j. EdgeView is not an instruction at all — it is a pure
// re-indexing, so a view of a neighbour or edge leaf *is* that gather leaf
// and a view of a row value *is* that row-constant vector. Scalar values
// that are constant within a row are hoisted to a once-per-row copy.
//
// A step (opStep) is the VM's catch-all: an edge op no other form
// matches — R-GCN's saved typed transform, MatMulTypedT, APPNP backward's
// wide MulConst·Mul, any wide chain a UDF writes — runs through evalStep
// once per edge of the block, with the edge's type. GCN, GAT and
// GraphSAGE need none; the coverage test in internal/models pins the list.
// A unit with no aggregation runs its row stages with an empty program.
//
// Bitwise contract: every chain arm is an exact transliteration of the
// corresponding evalStep arm at width 1, each evalStep arm is refinterp's
// definition of its op, the accumulate calls fold in refinterp's order,
// VecMulAdd rounds the multiply and the add separately (no FMA) exactly
// like a Mul followed by a sum, and GatherDot rounds each product to
// float32 and folds it from +0 for j ascending exactly like a wide Mul
// followed by RowSum — its speed comes from running several edges' chains
// in lockstep, never from reassociating one. The VM is therefore bitwise
// equal to refinterp on the same DAG, which FuzzFusionEquivalence and the
// property tests in specialize_test.go / backward_test.go enforce.

import (
	"fmt"
	"math"
	"strings"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// specTermKind enumerates the per-edge source forms the specializer
// recognizes for an aggregation input.
type specTermKind int

const (
	termScalar       specTermKind = iota // width-1 value from the scalar bank
	termGather                           // wide source row
	termScaledGather                     // wide source row × scalar
	termTyped                            // MatMulTyped(wide source row) [× scalar]
)

// wideFrom names where the rows of a wide operand live.
type wideFrom uint8

const (
	fromLeaf   wideFrom = iota // an edge leaf's tensor, by neighbour or edge id
	fromRowVec                 // a vector constant within the row
	fromCol                    // an opStep's block column, row j for edge j
)

// wideSrc names a wide per-edge operand in place — nothing is copied per
// edge: a row of an edge leaf's tensor, selected by neighbour or edge id;
// a vector that is constant within the row (a row leaf, const leaf or
// pre-row output; what a wide EdgeView of a row value aliases to); or the
// row of an opStep's block column that belongs to the edge.
type wideSrc struct {
	from     wideFrom
	ref      int // k.edgeLeaves, sp.rowVecs or sp.steps index, by from
	byEdgeID bool
	w        int // row width
}

// zeroIdx is the gather index vector of a row-constant source: every
// edge of the block reads row 0 of the vector itself. iotaIdx is that of
// a block column: edge j reads row j.
var zeroIdx, iotaIdx [specBlock]int32

func init() {
	for i := range iotaIdx {
		iotaIdx[i] = int32(i)
	}
}

// index picks the index vector that selects ws's row for each edge of a
// block whose neighbour and edge ids are nbrs and eids.
func (ws wideSrc) index(nbrs, eids []int32) []int32 {
	switch {
	case ws.from == fromRowVec:
		return zeroIdx[:len(nbrs)]
	case ws.from == fromCol:
		return iotaIdx[:len(nbrs)]
	case ws.byEdgeID:
		return eids
	}
	return nbrs
}

// specStep is one opStep instruction: an edge step the grammar does not
// match, run through evalStep once per edge of the block, in edge order,
// into a block column of specBlock × w. A width-1 step's column is also
// its scalar-bank column (bank ≥ 0), so chain ops and scalar terms read
// it like any other per-edge scalar.
type specStep struct {
	st   step
	w    int
	bank int // scalar-bank index of a width-1 output; -1 when wide
	ins  []stepIn
}

// stepIn binds one operand slot of an opStep: evalStep reads slot, which
// the executor points at the value's storage in place — a scalar-bank
// value (a chain, dot or load output) or the edge's row of a wide source.
type stepIn struct {
	slot int
	bank int // scalar-bank index; -1 reads src
	src  wideSrc
}

// specRowVec is one row-constant wide vector, rebound at every row: a
// row leaf's tensor row (leaf ≥ 0) or the scratch slot a const leaf or
// pre-row step fills.
type specRowVec struct {
	leaf int // k.rowLeaves index; -1 reads scratch[slot]
	slot int
}

// specDot is one dot production: bank[dst] = Σ_j a[j]·b[j] per edge, the
// fused form of RowSum(Mul(a, b)) over two wide sources.
type specDot struct {
	a, b wideSrc
	dst  int
}

// specTerm drives one aggregation accumulator per edge.
type specTerm struct {
	kind specTermKind
	agg  int // index into k.aggs

	hier         bool
	inner, outer gir.AggKind // per-edge fold kind is inner when hier, outer otherwise
	width        int         // accumulator width

	src   int     // termScalar: scalar-bank index
	wide  wideSrc // gather/typed: the source row (gather: w == width; typed: din)
	scale int     // scalar-bank index of the per-edge factor; -1 when absent

	// Typed-transform fields (termTyped).
	param     *gir.Node // weight leaf, shape [R, din, dout]
	tmpSlot   int       // scratch slot receiving the transform output
	din, dout int

	// Execution strategy, decided once at plan build. batch routes a
	// sum-folded scaled gather through the blocked GatherMulAdd primitive
	// (accumulator register-resident across an edge block, rows
	// prefetched); scalar01 folds a width-1 sum/mean scalar term directly
	// inside the edge program. Max/min folds keep the per-edge forms. A
	// typed term is always sum-folded and runs through the
	// register-resident GemvAdd/GemvMulAdd primitive.
	batch    bool
	scalar01 bool
}

// sumFold reports whether the term's per-edge fold is a sum (or mean).
func (t *specTerm) sumFold() bool {
	kind := t.outer
	if t.hier {
		kind = t.inner
	}
	return kind != gir.AggMax && kind != gir.AggMin
}

// specLoad copies one scalar from a bound edge tensor into the bank.
type specLoad struct {
	leaf     int // index into k.edgeLeaves
	byEdgeID bool
	dst      int
}

// specCopy hoists one row-constant scalar slot into the bank per row.
// When leaf is non-negative the value is read straight from that row
// leaf's tensor data, skipping the scratch staging copy.
type specCopy struct {
	slot int
	dst  int
	leaf int // k.rowLeaves index for a direct read; -1 via scratch
}

// specMat writes one value per edge to a materialized output: a scalar
// from the bank, or a wide row from an opStep's column.
type specMat struct {
	mat  int // index into k.mats
	src  int // scalar-bank index; -1 for a wide value
	step int // sp.steps index of a wide value
}

// specOpCode enumerates the instructions of the per-edge scalar program.
// Loads, the elementwise chain, materialization stores and the register-
// width term folds compile into one flat instruction array executed by an
// inline switch — no per-edge indirect calls remain on the fast path.
type specOpCode uint8

const (
	opLoadNbr       specOpCode = iota // v[o] = data[nbr]
	opLoadEdge                        // v[o] = data[eid]
	opDot                             // v[o] = Σ_j A[j]·B[j] over two wide sources
	opAdd                             // v[o] = v[a] + v[b]
	opSub                             // v[o] = v[a] - v[b]
	opMul                             // v[o] = v[a] * v[b]
	opDiv                             // v[o] = v[a] / v[b]
	opNeg                             // v[o] = -v[a]
	opExp                             // v[o] = exp(v[a])
	opLog                             // v[o] = log(v[a])
	opLeakyReLU                       // v[o] = v[a] < 0 ? c*v[a] : v[a]
	opReLU                            // v[o] = max(v[a], 0)
	opSigmoid                         // v[o] = 1/(1+exp(-v[a]))
	opTanh                            // v[o] = tanh(v[a])
	opMulConst                        // v[o] = c * v[a]
	opAddConst                        // v[o] = c + v[a]
	opLeakyReLUGrad                   // v[o] = v[a] > 0 ? v[b] : c*v[b]
	opReLUGrad                        // v[o] = v[a] > 0 ? v[b] : 0
	opSigmoidGrad                     // v[o] = v[b] * v[a] * (1 - v[a])
	opTanhGrad                        // v[o] = v[b] * (1 - v[a]*v[a])
	opCopy                            // v[o] = v[a] (RowSum at width 1)
	opStoreMat                        // data[eid] = v[a]
	opAccScalar                       // data[0] += v[a] (sum/mean scalar term)
	opStoreBuf                        // data[i-b0] = v[a] (batched term's scale)
	opStep                            // col[j] = evalStep(steps[ref]) per edge j
	opStoreWide                       // data[eid] = col[j] (wide per-edge materialization)
)

// specProgOp is one static instruction of the edge program: an opcode,
// scalar-bank operand indexes, an immediate, and — for loads, dots, steps,
// stores and folds — a reference resolved at launch time (leaf index,
// sp.dots index, sp.steps index, materialization index, or term index
// respectively). opStoreWide names its source step in a.
//
// aSc/bSc mark operands that are row-constant scalars (read from the
// bank) rather than per-edge columns — on opStep and opStoreWide, which
// have no bank operands, both are set — and a non-negative sink redirects
// the output column into that term's gather scale buffer — the store
// instruction it replaces is elided.
type specProgOp struct {
	code     specOpCode
	o, a, b  int32
	c        float32
	ref      int32
	aSc, bSc bool
	sink     int32
}

// specOp is the launch-bound form of specProgOp: ref is resolved to the
// tensor data / accumulator / scale buffer the instruction touches, and
// o/a/b to their block columns — or, for a rowProg instruction, to
// one-element views of the scalar bank.
type specOp struct {
	code       specOpCode
	a, b       int32
	c          float32
	aSc, bSc   bool
	data       []float32
	oc, ac, bc []float32
	dot        *specDot
	step       *specStep
}

// specPlan is the compiled closure program for a specialized unit. It is
// immutable after compile and shared read-only by all workers; per-launch
// tensor data lives on the Kernel (specLeafData/specWd) and per-worker
// scalars in each arena's svals bank.
type specPlan struct {
	name    string
	nScalar int

	rowCopies []specCopy
	rowVecs   []specRowVec
	edgeLoads []specLoad
	dots      []specDot
	steps     []specStep
	edgeMats  []specMat
	terms     []specTerm
	batched   bool // some term takes the blocked gather path

	// prog is the flat per-edge instruction array: loads, dots, then the
	// scalar chain and the opSteps in edge-stage order, then
	// materialization stores, then in-program term folds
	// (opAccScalar/opStoreBuf). chainLen counts the chain instructions for
	// the pattern name; rest indexes the terms the program does not fold —
	// they run through the generic per-edge term switch after it.
	prog     []specProgOp
	chainLen int
	rest     []int32

	// Columnar execution: prog runs op-at-a-time over a whole edge block —
	// one dispatch per instruction per block with a tight per-element loop
	// — instead of per edge. colSlot marks the bank slots that vary per
	// edge (and so get a block column); chain ops whose operands are all
	// row-constant are hoisted into rowProg and run once per row, through
	// the same executor over one-element columns.
	colSlot []bool
	rowProg []specProgOp

	// Row fast paths, valid when the unit has no pre-row/post stages:
	// directRows serves row-leaf scalars straight from tensor data
	// (skipping the per-row scratch staging) and aggMat[ai] names the
	// non-per-edge materialization fed directly from accumulator ai
	// (-1: stage through scratch as usual).
	directRows bool
	directEpi  bool
	aggMat     []int32
	matDirect  []bool // per k.mats: served by aggMat, skip the staged copy
}

// Specialized returns the name of the VM plan the kernel compiled to.
func (k *Kernel) Specialized() string { return k.spec.name }

// stepFree reports whether every edge step matched the grammar, so the
// plan holds no opStep: the fact behind the "specialized" obs counter and,
// for an aggregating unit, cpuWork's per-edge discount.
func (sp *specPlan) stepFree() bool { return len(sp.steps) == 0 }

// specMatcher is the state of one buildSpecPlan run: the slot
// classification of the compiled stages and the scalar bank / row-vector
// tables the plan accumulates while operands are resolved.
type specMatcher struct {
	k  *Kernel
	sp *specPlan

	edgeLeafBySlot map[int]int  // slot → k.edgeLeaves index
	rowConst       map[int]int  // row-constant slot → k.rowLeaves index, -1 when scratch-resident
	viewOf         map[int]int  // EdgeView output slot → its operand's slot
	stepBySlot     map[int]step // every edge step, by output slot
	wideBySlot     map[int]step // edge steps that are neither chain, dot nor view
	stepOf         map[int]int  // opStep output slot → sp.steps index
	sval           map[int]int  // slot → scalar-bank index
	rowVecOf       map[int]int  // row-constant slot → sp.rowVecs index
}

// view follows a slot through EdgeView steps to the value it re-indexes.
// EdgeView is a pure copy of its operand's row for the current edge, so
// the alias is exact: a view of a neighbour or edge leaf is that gather
// leaf, a view of a row value is row-constant.
func (m *specMatcher) view(slot int) int {
	for {
		in, ok := m.viewOf[slot]
		if !ok {
			return slot
		}
		slot = in
	}
}

// resolveScalar returns the bank index holding a width-1 slot, allocating
// a per-edge load or a per-row copy on first use; a width-1 value of a
// step outside the grammar becomes an opStep whose column is its bank
// column.
func (m *specMatcher) resolveScalar(slot int) int {
	k, sp := m.k, m.sp
	slot = m.view(slot)
	if i, ok := m.sval[slot]; ok {
		return i
	}
	if _, ok := m.wideBySlot[slot]; ok {
		return sp.steps[m.demand(slot)].bank
	}
	i := sp.nScalar
	sp.nScalar++
	m.sval[slot] = i
	if li, ok := m.edgeLeafBySlot[slot]; ok {
		sp.edgeLoads = append(sp.edgeLoads, specLoad{
			leaf: li, byEdgeID: k.edgeLeaves[li].byEdgeID, dst: i,
		})
	} else {
		// Row leaf, const leaf or pre-row output: constant within a
		// row, hoisted to one copy per row.
		sp.rowCopies = append(sp.rowCopies, specCopy{slot: slot, dst: i, leaf: -1})
	}
	return i
}

// resolveWide validates a wide operand of width w as readable in place:
// an edge-leaf row, a row-constant vector or an opStep's column.
func (m *specMatcher) resolveWide(slot, w int) (wideSrc, bool) {
	k, sp := m.k, m.sp
	slot = m.view(slot)
	if k.widths[slot] != w {
		return wideSrc{}, false
	}
	if li, ok := m.edgeLeafBySlot[slot]; ok {
		return wideSrc{from: fromLeaf, ref: li, byEdgeID: k.edgeLeaves[li].byEdgeID, w: w}, true
	}
	if si, ok := m.stepOf[slot]; ok {
		return wideSrc{from: fromCol, ref: si, w: w}, true
	}
	li, ok := m.rowConst[slot]
	if !ok {
		return wideSrc{}, false
	}
	rv, seen := m.rowVecOf[slot]
	if !seen {
		rv = len(sp.rowVecs)
		m.rowVecOf[slot] = rv
		sp.rowVecs = append(sp.rowVecs, specRowVec{leaf: li, slot: slot})
	}
	return wideSrc{from: fromRowVec, ref: rv, w: w}, true
}

// demand compiles the edge step producing slot into an opStep (once) and
// returns its sp.steps index. Its operands are viewed in place: wide
// sources — the columns of the opSteps it demands in turn among them —
// and scalar-bank values.
func (m *specMatcher) demand(slot int) int {
	if si, ok := m.stepOf[slot]; ok {
		return si
	}
	k, sp := m.k, m.sp
	st := m.stepBySlot[slot]
	ss := specStep{st: st, w: k.widths[slot], bank: -1}
	for _, s := range st.ins {
		if s < 0 {
			continue // a typed weight, read through paramT
		}
		in := stepIn{slot: s, bank: -1}
		u, w := m.view(s), k.widths[s]
		if ws, ok := m.resolveWide(u, w); ok {
			in.src = ws
		} else if w == 1 {
			in.bank = m.resolveScalar(u)
		} else {
			in.src = wideSrc{from: fromCol, ref: m.demand(u), w: w}
		}
		ss.ins = append(ss.ins, in)
	}
	if ss.w == 1 {
		ss.bank = sp.nScalar
		sp.nScalar++
		m.sval[slot] = ss.bank
	}
	si := len(sp.steps)
	sp.steps = append(sp.steps, ss)
	m.stepOf[slot] = si
	return si
}

// matchDot recognizes st as the reduction of a dot production: a RowSum
// whose operand is the wide Mul of two equal-width wide sources.
func (m *specMatcher) matchDot(st step) (specDot, bool) {
	if st.node.Op != gir.OpRowSum {
		return specDot{}, false
	}
	in := m.view(st.ins[0])
	w := m.k.widths[in]
	mul, ok := m.wideBySlot[in]
	if !ok || w == 1 || mul.node.Op != gir.OpMul || len(mul.ins) != 2 || mul.ins[0] < 0 || mul.ins[1] < 0 {
		return specDot{}, false
	}
	a, okA := m.resolveWide(mul.ins[0], w)
	b, okB := m.resolveWide(mul.ins[1], w)
	if !okA || !okB {
		return specDot{}, false
	}
	return specDot{a: a, b: b}, true
}

// buildSpecPlan compiles the stages into a VM plan. It is total: an edge
// step the grammar above does not match becomes an opStep. The only
// errors are stages no row loop can run — an op evalStep does not know,
// or a row stage reading a per-edge value.
func (k *Kernel) buildSpecPlan() (*specPlan, error) {
	sp := &specPlan{}
	m := &specMatcher{
		k: k, sp: sp,
		edgeLeafBySlot: make(map[int]int, len(k.edgeLeaves)),
		rowConst:       make(map[int]int),
		viewOf:         make(map[int]int),
		stepBySlot:     make(map[int]step, len(k.edge)),
		wideBySlot:     make(map[int]step),
		stepOf:         make(map[int]int),
		sval:           make(map[int]int),
		rowVecOf:       make(map[int]int),
	}
	for li, ld := range k.edgeLeaves {
		m.edgeLeafBySlot[ld.slot] = li
	}
	for li, ld := range k.rowLeaves {
		m.rowConst[ld.slot] = li
	}
	for _, ld := range k.constLeaves {
		m.rowConst[ld.slot] = -1
	}
	for _, st := range k.preRow {
		m.rowConst[st.out] = -1
	}

	// Partition the edge steps (k.edge lists producers before consumers):
	// EdgeViews alias their operand; width-1 elementwise ops over width-1
	// operands form the scalar chain; RowSum(Mul(A,B)) over two wide
	// sources is a dot; everything else is a wide step, which a term
	// consumes in place or an opStep computes.
	var chainSteps []step
	var dotOuts []int // output slot of sp.dots[i]
	for _, st := range k.edge {
		m.stepBySlot[st.out] = st
		if st.node.Op == gir.OpEdgeView && k.widths[st.ins[0]] == k.widths[st.out] {
			m.viewOf[st.out] = st.ins[0]
			continue
		}
		if k.widths[st.out] == 1 && scalarClosureOp(st.node.Op) {
			allScalar := true
			for _, s := range st.ins {
				if s < 0 || k.widths[s] != 1 {
					allScalar = false
					break
				}
			}
			if allScalar {
				chainSteps = append(chainSteps, st)
				continue
			}
		}
		if d, ok := m.matchDot(st); ok {
			sp.dots = append(sp.dots, d)
			dotOuts = append(dotOuts, st.out)
			continue
		}
		m.wideBySlot[st.out] = st
	}

	// The scalar bank: chain and dot outputs first (pre-registered so
	// operand resolution never sees a forward reference), then
	// demand-allocated loads, row copies and width-1 opStep columns.
	for _, st := range chainSteps {
		m.sval[st.out] = sp.nScalar
		sp.nScalar++
	}
	for i, out := range dotOuts {
		sp.dots[i].dst = sp.nScalar
		m.sval[out] = sp.nScalar
		sp.nScalar++
	}

	// Every step must be an op evalStep runs, and the pre-row and post
	// stages, which run once per row, must not read per-edge state — the
	// stage split already guarantees that, verified here rather than
	// assumed.
	edgeStage := make(map[int]bool)
	for _, st := range k.edge {
		edgeStage[st.out] = true
	}
	for _, ld := range k.edgeLeaves {
		edgeStage[ld.slot] = true
	}
	for si, stage := range [3][]step{k.preRow, k.post, k.edge} {
		for _, st := range stage {
			if !fusedOp(st.node.Op) {
				return nil, fmt.Errorf("kernels: unit %d: op %s cannot run inside a fused kernel", k.Unit.ID, st.node.Op)
			}
			for _, s := range st.ins {
				if si < 2 && s >= 0 && edgeStage[s] {
					return nil, fmt.Errorf("kernels: unit %d: row stage reads per-edge slot %d", k.Unit.ID, s)
				}
			}
		}
	}

	// Compile the chain instructions.
	chainOps := make([]specProgOp, len(chainSteps))
	for i, st := range chainSteps {
		chainOps[i] = m.buildScalarOp(st)
	}
	sp.chainLen = len(chainOps)

	// Per-edge materializations: a scalar from the bank, a wide value
	// from its opStep's column.
	for mi, mo := range k.mats {
		if !mo.perEdge {
			continue
		}
		mt := specMat{mat: mi, src: -1, step: -1}
		if k.widths[mo.slot] == 1 {
			mt.src = m.resolveScalar(mo.slot)
		} else {
			mt.step = m.demand(mo.slot)
		}
		sp.edgeMats = append(sp.edgeMats, mt)
	}

	// Match each aggregation input to a term.
	for ai, ag := range k.aggs {
		t := specTerm{agg: ai, width: ag.node.Dim(), src: -1, scale: -1}
		if ag.node.Op == gir.OpAggHier {
			t.hier = true
			t.inner, t.outer = ag.node.Attr.InnerOp, ag.node.Attr.OuterOp
		} else {
			t.outer = ag.node.Attr.AggOp
		}
		m.matchTerm(&t, ag.in)
		sp.terms = append(sp.terms, t)
	}

	// Execution strategy per term. Sum and mean folds are order-fixed
	// element-independent adds, so they can leave the per-edge form:
	// scaled gathers batch whole edge blocks through GatherMulAdd (no
	// block crosses a hierarchical fold).
	for ti := range sp.terms {
		t := &sp.terms[ti]
		sum := t.sumFold()
		if sum && t.kind == termScaledGather {
			t.batch = true
			sp.batched = true
		}
		if sum && t.kind == termScalar && t.width == 1 {
			t.scalar01 = true
		}
	}

	// Classify bank slots: load, dot and opStep outputs vary per edge, and
	// so does any chain output with at least one per-edge operand. A chain
	// op whose operands are all row-constant is itself row-invariant — it
	// is hoisted into rowProg and computed once per row, which stores the
	// identical value the per-edge recomputation would have.
	sp.colSlot = make([]bool, sp.nScalar)
	for _, ld := range sp.edgeLoads {
		sp.colSlot[ld.dst] = true
	}
	for _, d := range sp.dots {
		sp.colSlot[d.dst] = true
	}
	for _, ss := range sp.steps {
		if ss.bank >= 0 {
			sp.colSlot[ss.bank] = true
		}
	}
	edgeChain := make(map[int]specProgOp) // chain step output slot → its column instruction
	for i, op := range chainOps {
		col := sp.colSlot[op.a]
		if opReadsB(op.code) && sp.colSlot[op.b] {
			col = true
		}
		if !col {
			sp.rowProg = append(sp.rowProg, op)
			continue
		}
		op.aSc = !sp.colSlot[op.a]
		if opReadsB(op.code) {
			op.bSc = !sp.colSlot[op.b]
		}
		sp.colSlot[op.o] = true
		edgeChain[chainSteps[i].out] = op
	}

	// Assemble the flat edge program: loads, dots, the chain and opSteps in
	// edge-stage order, materialization stores, then the in-program term
	// folds. Terms fold independent accumulators, so hoisting the
	// program-handled ones ahead of the generic term switch cannot change
	// any accumulator's edge sequence.
	for _, ld := range sp.edgeLoads {
		code := opLoadNbr
		if ld.byEdgeID {
			code = opLoadEdge
		}
		sp.prog = append(sp.prog, specProgOp{code: code, o: int32(ld.dst), ref: int32(ld.leaf), sink: -1})
	}
	for di, d := range sp.dots {
		sp.prog = append(sp.prog, specProgOp{code: opDot, o: int32(d.dst), ref: int32(di), sink: -1})
	}
	for _, st := range k.edge {
		if op, ok := edgeChain[st.out]; ok {
			op.sink = -1
			sp.prog = append(sp.prog, op)
		} else if si, ok := m.stepOf[st.out]; ok {
			sp.prog = append(sp.prog, specProgOp{code: opStep, o: -1, ref: int32(si), aSc: true, bSc: true, sink: -1})
		}
	}
	for _, mt := range sp.edgeMats {
		if mt.src < 0 {
			sp.prog = append(sp.prog, specProgOp{code: opStoreWide, o: -1, a: int32(mt.step), ref: int32(mt.mat), aSc: true, bSc: true, sink: -1})
			continue
		}
		sp.prog = append(sp.prog, specProgOp{
			code: opStoreMat, a: int32(mt.src), ref: int32(mt.mat),
			aSc: !sp.colSlot[mt.src], sink: -1,
		})
	}
	for ti := range sp.terms {
		t := &sp.terms[ti]
		switch {
		case t.scalar01:
			sp.prog = append(sp.prog, specProgOp{
				code: opAccScalar, a: int32(t.src), ref: int32(ti),
				aSc: !sp.colSlot[t.src], sink: -1,
			})
		case t.batch:
			sp.prog = append(sp.prog, specProgOp{
				code: opStoreBuf, a: int32(t.scale), ref: int32(ti),
				aSc: !sp.colSlot[t.scale], sink: -1,
			})
		default:
			sp.rest = append(sp.rest, int32(ti))
		}
	}

	sp.fuseBufSinks()
	k.planRowFastPaths(sp)

	sp.name = specPlanName(sp)
	return sp, nil
}

// opReadsB reports whether code reads a second scalar operand.
func opReadsB(code specOpCode) bool {
	switch code {
	case opAdd, opSub, opMul, opDiv,
		opLeakyReLUGrad, opReLUGrad, opSigmoidGrad, opTanhGrad:
		return true
	}
	return false
}

// fuseBufSinks redirects a column consumed only by an opStoreBuf into the
// term's scale buffer itself: the producing instruction writes the buffer
// directly and the store is elided. Bank slots are written exactly once,
// so a single-use source column has exactly one producer.
func (sp *specPlan) fuseBufSinks() {
	uses := make([]int, sp.nScalar)
	for _, op := range sp.prog {
		switch op.code {
		case opLoadNbr, opLoadEdge, opDot, opStoreWide:
			continue // no bank operands
		case opStep:
			for _, in := range sp.steps[op.ref].ins {
				if in.bank >= 0 {
					uses[in.bank]++
				}
			}
			continue
		}
		if !op.aSc {
			uses[op.a]++
		}
		if opReadsB(op.code) && !op.bSc {
			uses[op.b]++
		}
	}
	for _, ti := range sp.rest {
		t := &sp.terms[ti]
		if t.kind == termScalar {
			uses[t.src]++
		} else if t.scale >= 0 {
			uses[t.scale]++
		}
	}
	kept := sp.prog[:0]
	for _, op := range sp.prog {
		if op.code == opStoreBuf && !op.aSc && uses[op.a] == 1 {
			for pi := range kept {
				if p := &kept[pi]; p.code != opStoreMat && p.code != opAccScalar &&
					p.code != opStoreBuf && p.o == op.a {
					p.sink = op.ref
					op.code = 0 // elided
					break
				}
			}
			if op.code == 0 {
				continue
			}
		}
		kept = append(kept, op)
	}
	sp.prog = kept
}

// planRowFastPaths enables the direct row paths when the unit has no
// pre-row/post stages: row-leaf scalars are read straight from tensor
// data instead of being staged through scratch, and an aggregator with a
// dedicated materialization copies its accumulator straight to the output
// row. Falls back to the staged path whenever any materialization still
// reads a scratch slot the fast path would leave stale.
func (k *Kernel) planRowFastPaths(sp *specPlan) {
	if len(k.preRow) > 0 || len(k.post) > 0 {
		return
	}
	leafBySlot := make(map[int]int, len(k.rowLeaves))
	for li, ld := range k.rowLeaves {
		leafBySlot[ld.slot] = li
	}
	aggBySlot := make(map[int]int, len(k.aggs))
	for ai, ag := range k.aggs {
		aggBySlot[ag.out] = ai
	}
	direct := true
	matCount := make(map[int]int)
	for _, m := range k.mats {
		if m.perEdge {
			continue
		}
		if _, leaf := leafBySlot[m.slot]; leaf {
			direct = false // a materialized row leaf needs the staging copy
		}
		matCount[m.slot]++
	}
	if !direct {
		return
	}
	sp.directRows = true
	for ci := range sp.rowCopies {
		if li, ok := leafBySlot[sp.rowCopies[ci].slot]; ok {
			sp.rowCopies[ci].leaf = li
		}
	}
	sp.directEpi = true
	sp.aggMat = make([]int32, len(k.aggs))
	sp.matDirect = make([]bool, len(k.mats))
	for ai := range sp.aggMat {
		sp.aggMat[ai] = -1
	}
	for mi, m := range k.mats {
		if m.perEdge || matCount[m.slot] != 1 {
			continue
		}
		if ai, ok := aggBySlot[m.slot]; ok {
			sp.aggMat[ai] = int32(mi)
			sp.matDirect[mi] = true
		}
	}
}

// matchTerm resolves one aggregation input slot to a term form. A wide
// input no fused form matches is computed by an opStep, and the term
// gathers from its column.
func (m *specMatcher) matchTerm(t *specTerm, inSlot int) {
	inSlot = m.view(inSlot)
	if m.k.widths[inSlot] == 1 {
		t.kind, t.src = termScalar, m.resolveScalar(inSlot)
		return
	}
	if ws, ok := m.resolveWide(inSlot, t.width); ok {
		t.kind, t.wide = termGather, ws
		return
	}
	if !m.matchWideTerm(t, m.wideBySlot[inSlot]) {
		t.kind = termGather
		t.wide = wideSrc{from: fromCol, ref: m.demand(inSlot), w: t.width}
	}
}

// matchWideTerm matches the wide step feeding an aggregation against the
// fused forms: MatMulTyped over a wide source under a sum fold, and a wide
// source or such a typed transform scaled by a bank scalar.
func (m *specMatcher) matchWideTerm(t *specTerm, st step) bool {
	k := m.k
	// typedTransform validates a sum-folded MatMulTyped step whose input
	// is a wide source and fills the typed-term fields.
	typedTransform := func(mm step) bool {
		din, dout := mm.param.Shape[1], mm.param.Shape[2]
		if k.widths[mm.out] != dout || !t.sumFold() {
			return false
		}
		xSlot := mm.ins[0]
		if xSlot < 0 {
			xSlot = mm.ins[1]
		}
		ws, ok := m.resolveWide(xSlot, din)
		if !ok {
			return false
		}
		t.kind, t.wide = termTyped, ws
		t.param, t.tmpSlot, t.din, t.dout = mm.param, mm.out, din, dout
		return true
	}

	switch st.node.Op {
	case gir.OpMatMulTyped:
		return typedTransform(st)
	case gir.OpMul:
		if len(st.ins) != 2 {
			return false
		}
		// One operand wide (source row or typed transform), the other a
		// bank scalar.
		for side := 0; side < 2; side++ {
			wideIn, scalarIn := st.ins[side], st.ins[1-side]
			if wideIn < 0 || scalarIn < 0 || k.widths[scalarIn] != 1 {
				continue
			}
			wideIn = m.view(wideIn)
			if ws, ok := m.resolveWide(wideIn, t.width); ok {
				t.wide = ws
				t.kind, t.scale = termScaledGather, m.resolveScalar(scalarIn)
				return true
			}
			if mm, ok := m.wideBySlot[wideIn]; ok && mm.node.Op == gir.OpMatMulTyped && typedTransform(mm) {
				t.scale = m.resolveScalar(scalarIn)
				return true
			}
		}
	}
	return false
}

// scalarClosureOp reports whether buildScalarOp can compile op.
func scalarClosureOp(op gir.OpKind) bool {
	switch op {
	case gir.OpAdd, gir.OpSub, gir.OpMul, gir.OpDiv, gir.OpNeg,
		gir.OpExp, gir.OpLog, gir.OpLeakyReLU, gir.OpReLU,
		gir.OpSigmoid, gir.OpTanh, gir.OpMulConst, gir.OpAddConst,
		gir.OpLeakyReLUGrad, gir.OpReLUGrad, gir.OpSigmoidGrad,
		gir.OpTanhGrad, gir.OpRowSum:
		return true
	}
	return false
}

// buildScalarOp compiles one width-1 step into an edge-program
// instruction over the scalar bank. Each opcode's executor arm is the
// evalStep arm at width 1, with the slot indirection resolved here at
// compile time.
func (m *specMatcher) buildScalarOp(st step) specProgOp {
	op := specProgOp{o: int32(m.sval[st.out])}
	idx := make([]int, len(st.ins))
	for i, s := range st.ins {
		idx[i] = m.resolveScalar(s)
	}
	if len(idx) > 0 {
		op.a = int32(idx[0])
	}
	if len(idx) > 1 {
		op.b = int32(idx[1])
	}
	switch st.node.Op {
	case gir.OpAdd:
		op.code = opAdd
	case gir.OpSub:
		op.code = opSub
	case gir.OpMul:
		op.code = opMul
	case gir.OpDiv:
		op.code = opDiv
	case gir.OpNeg:
		op.code = opNeg
	case gir.OpExp:
		op.code = opExp
	case gir.OpLog:
		op.code = opLog
	case gir.OpLeakyReLU:
		op.code, op.c = opLeakyReLU, st.node.Attr.Slope
	case gir.OpReLU:
		op.code = opReLU
	case gir.OpSigmoid:
		op.code = opSigmoid
	case gir.OpTanh:
		op.code = opTanh
	case gir.OpMulConst:
		op.code, op.c = opMulConst, st.node.Attr.C
	case gir.OpAddConst:
		op.code, op.c = opAddConst, st.node.Attr.C
	case gir.OpLeakyReLUGrad:
		op.code, op.c = opLeakyReLUGrad, st.node.Attr.Slope
	case gir.OpReLUGrad:
		op.code = opReLUGrad
	case gir.OpSigmoidGrad:
		op.code = opSigmoidGrad
	case gir.OpTanhGrad:
		op.code = opTanhGrad
	case gir.OpRowSum:
		// At width 1 the sum is an identity copy.
		op.code = opCopy
	}
	return op
}

// specPlanName renders the compiled plan for EXPLAIN, e.g.
// "chain[4]+scaled-gather" (GAT), "dot[1]+chain[6]+scalar-agg" (GAT
// backward), "typed-gather→hier" (R-GCN inference) or
// "step[1]+scaled-col→hier" (R-GCN training). A term over a row-constant
// vector reads "rowvec" and one over an opStep column "col" where a leaf
// term reads "gather"; a unit with no edge work is "row-only".
func specPlanName(sp *specPlan) string {
	var parts []string
	if len(sp.dots) > 0 {
		parts = append(parts, fmt.Sprintf("dot[%d]", len(sp.dots)))
	}
	if sp.chainLen > 0 {
		parts = append(parts, fmt.Sprintf("chain[%d]", sp.chainLen))
	}
	if len(sp.steps) > 0 {
		parts = append(parts, fmt.Sprintf("step[%d]", len(sp.steps)))
	}
	seen := make(map[string]bool)
	hier := false
	for _, t := range sp.terms {
		var s string
		switch t.kind {
		case termScalar:
			s = "scalar-agg"
		case termGather:
			s = "gather"
		case termScaledGather:
			s = "scaled-gather"
		case termTyped:
			s = "typed-gather"
		}
		if t.kind != termScalar && t.wide.from == fromRowVec {
			s = strings.Replace(s, "gather", "rowvec", 1)
		}
		if t.kind != termScalar && t.wide.from == fromCol {
			s = strings.Replace(s, "gather", "col", 1)
		}
		if !seen[s] {
			seen[s] = true
			parts = append(parts, s)
		}
		hier = hier || t.hier
	}
	name := strings.Join(parts, "+")
	if name == "" {
		name = "row-only"
	}
	if hier {
		name += "→hier"
	}
	return name
}

// specBlock is the edge-block size of the batched gather path: big
// enough to amortize the GatherMulAdd call and fill the prefetch
// pipeline, small enough that the per-term scale buffers stay L1-hot.
const specBlock = 256

// specTermState is a term's per-launch runtime view, hoisted out of the
// edge loop: the accumulator target and fold kind resolved against this
// worker's arena, and the raw data slices resolved against this launch's
// bindings.
type specTermState struct {
	t      *specTerm
	target []float32
	kind   gir.AggKind
	data   []float32 // gather/typed: leaf tensor data
	wd     []float32 // typed: weight data
	tmp    []float32 // typed: transform scratch row
	buf    []float32 // batch: per-block scale buffer
}

// runRowsSpec executes rows [lo, hi) through the compiled plan: the VM's
// one row loop. It computes what refinterp's definition does, value for
// value and fold for fold (see the bitwise contract above).
//
// Edges are walked in blocks of at most specBlock, and on a hierarchical
// kernel a block never crosses an edge-type change. Each block runs the
// program column-at-a-time: each instruction makes one dispatch per block
// and a tight loop over the block's edges, with per-edge values held in
// block columns. The remaining terms (max/min folds, typed transforms,
// opStep columns) then walk the block per edge, and every batched term
// drains with one GatherMulAdd over the block — the CSR's own nbr/eid
// slices are the gather index vector. After a type run's last block every
// hierarchical accumulator folds inner into outer, at the edges where the
// definition folds. Each scalar is computed from the same pure dataflow
// and each accumulator folds its own edge sequence in edge order, so
// reordering work across independent accumulators stays bitwise-equal.
func (k *Kernel) runRowsSpec(a *runArena, csr *graph.CSR, g *graph.Graph, lo, hi int) {
	sp := k.spec
	scratch, accs, v, rowVec := a.scratch, a.accs, a.svals, a.rowVec
	rowT, matT, params := k.rowT, k.matT, k.paramT
	leafData := k.specLeafData
	matData := k.specMatData

	ts := a.tstate
	for ti := range sp.terms {
		t := &sp.terms[ti]
		s := &ts[ti]
		s.t = t
		s.target, s.kind = accs[t.agg], t.outer
		if t.hier {
			s.target, s.kind = a.inner[t.agg], t.inner
		}
		s.data = nil
		if t.kind != termScalar {
			switch t.wide.from {
			case fromLeaf:
				s.data = leafData[t.wide.ref]
			case fromCol:
				s.data = a.wcols[t.wide.ref]
			} // row-constant sources rebind per row
		}
		if t.kind == termTyped {
			s.wd = k.specWd[ti]
			s.tmp = scratch[t.tmpSlot]
		}
	}

	// Bind the edge program against this launch's tensors, this worker's
	// accumulators and block columns, and the row program against
	// one-element columns over the scalar bank.
	cols := a.cols
	for pi, p := range sp.prog {
		b := specOp{code: p.code, a: p.a, b: p.b, c: p.c, aSc: p.aSc, bSc: p.bSc}
		switch p.code {
		case opLoadNbr, opLoadEdge:
			b.data = leafData[p.ref]
		case opDot:
			b.dot = &sp.dots[p.ref]
		case opStep:
			b.step, b.oc = &sp.steps[p.ref], a.wcols[p.ref]
		case opStoreWide:
			b.step, b.ac, b.data = &sp.steps[p.a], a.wcols[p.a], matData[p.ref]
		case opStoreMat:
			b.data = matData[p.ref]
		case opAccScalar:
			b.data = ts[p.ref].target
		case opStoreBuf:
			b.data = ts[p.ref].buf
		}
		if p.o >= 0 {
			b.oc = cols[p.o]
		}
		if p.sink >= 0 {
			b.oc = ts[p.sink].buf
		}
		if !p.aSc {
			b.ac = cols[p.a]
		}
		if !p.bSc {
			b.bc = cols[p.b]
		}
		a.prog[pi] = b
	}
	for pi, p := range sp.rowProg {
		a.rowProg[pi] = rowOp(p, v)
	}
	rowLeafData := a.rowLeafData
	if sp.directRows {
		rowLeafData = rowLeafData[:0]
		for i := range k.rowLeaves {
			rowLeafData = append(rowLeafData, rowT[i].Data())
		}
	}
	edgeWork := len(sp.prog) > 0 || len(sp.rest) > 0

	for r := lo; r < hi; r++ {
		vid := int(csr.RowIDs[r])
		if !sp.directRows {
			for i, ld := range k.rowLeaves {
				copy(scratch[ld.slot], rowT[i].Row(vid))
			}
		}
		for _, st := range k.preRow {
			evalStep(st, scratch, params, 0)
		}
		for ci := range sp.rowCopies {
			rc := &sp.rowCopies[ci]
			if rc.leaf >= 0 {
				v[rc.dst] = rowLeafData[rc.leaf][vid]
			} else {
				v[rc.dst] = scratch[rc.slot][0]
			}
		}
		if len(a.rowProg) > 0 {
			k.execProg(a, a.rowProg, zeroIdx[:1], zeroIdx[:1], g)
		}
		if len(sp.rowVecs) > 0 {
			for i, rv := range sp.rowVecs {
				if rv.leaf >= 0 {
					rowVec[i] = rowT[rv.leaf].Row(vid)
				} else {
					rowVec[i] = scratch[rv.slot]
				}
			}
			for ti := range sp.terms {
				if t := &sp.terms[ti]; t.kind != termScalar && t.wide.from == fromRowVec {
					ts[ti].data = rowVec[t.wide.ref]
				}
			}
		}
		for i, ag := range k.aggs {
			initAcc(accs[i], outerKind(ag.node))
			if ag.node.Op == gir.OpAggHier {
				initAcc(a.inner[i], ag.node.Attr.InnerOp)
			}
		}
		nbrs, eids := csr.Row(r)
		if edgeWork {
			k.runEdgesCol(a, nbrs, eids, g)
		}
		for ai, ag := range k.aggs {
			finalizeAcc(accs[ai], ag.node, len(nbrs))
			if sp.directEpi && sp.aggMat[ai] >= 0 {
				copy(matT[sp.aggMat[ai]].Row(vid), accs[ai])
			} else {
				copy(scratch[ag.out], accs[ai])
			}
		}
		for _, st := range k.post {
			evalStep(st, scratch, params, 0)
		}
		for mi, m := range k.mats {
			if m.perEdge || (sp.directEpi && sp.matDirect[mi]) {
				continue
			}
			copy(matT[mi].Row(vid), scratch[m.slot])
		}
	}
}

// rowOp binds a row-program instruction to one-element columns over the
// scalar bank v.
func rowOp(p specProgOp, v []float32) specOp {
	return specOp{code: p.code, c: p.c, oc: v[p.o : p.o+1], ac: v[p.a : p.a+1], bc: v[p.b : p.b+1]}
}

// runEdgesCol walks one row's edges column-at-a-time: per block, the edge
// program runs op-major (execProg), then the leftover terms walk the block
// per edge, then every batched term drains through GatherMulAdd. On a
// hierarchical kernel blocks end at every edge-type change too, and after
// a type run's last block each AggHier accumulator folds inner into outer.
func (k *Kernel) runEdgesCol(a *runArena, nbrs, eids []int32, g *graph.Graph) {
	sp, ts, v, cols := k.spec, a.tstate, a.svals, a.cols
	typed := k.usesEdgeType
	for b0 := 0; b0 < len(nbrs); {
		b1 := min(b0+specBlock, len(nbrs))
		runEnd := false
		if k.hier {
			et := g.EdgeTypes[eids[b0]]
			for i := b0 + 1; i < b1; i++ {
				if g.EdgeTypes[eids[i]] != et {
					b1 = i
					break
				}
			}
			runEnd = b1 == len(nbrs) || g.EdgeTypes[eids[b1]] != et
		}
		n := b1 - b0
		nbrsB := nbrs[b0:b1]
		eidsB := eids[b0:b1]
		k.execProg(a, a.prog, nbrsB, eidsB, g)
		for _, si := range sp.rest {
			s := &ts[si]
			t := s.t
			idx := t.wide.index(nbrsB, eidsB)
			lw := t.wide.w
			switch t.kind {
			case termScalar:
				if sp.colSlot[t.src] {
					col := cols[t.src][:n]
					for j := range col {
						accumulate(s.target, col[j:j+1], s.kind, 1)
					}
				} else {
					for j := 0; j < n; j++ {
						accumulate(s.target, v[t.src:t.src+1], s.kind, 1)
					}
				}
			case termGather:
				for _, ix := range idx {
					base := int(ix) * lw
					accumulate(s.target, s.data[base:base+lw], s.kind, lw)
				}
			case termScaledGather:
				var scCol []float32
				if sp.colSlot[t.scale] {
					scCol = cols[t.scale]
				}
				for j, ix := range idx {
					sc := v[t.scale]
					if scCol != nil {
						sc = scCol[j]
					}
					base := int(ix) * lw
					scaledAccumulate(s.target, s.data[base:base+lw], sc, s.kind)
				}
			default: // termTyped
				var scCol []float32
				if t.scale >= 0 && sp.colSlot[t.scale] {
					scCol = cols[t.scale]
				}
				for j, ix := range idx {
					if j+1 < n {
						nb := int(idx[j+1])
						tensor.Prefetch(s.data[nb*lw : nb*lw+lw])
					}
					base := int(ix) * lw
					x := s.data[base : base+lw]
					et := 0
					if typed {
						et = int(g.EdgeTypes[eidsB[j]])
					}
					wbase := et * t.din * t.dout
					wd := s.wd[wbase : wbase+t.din*t.dout]
					if t.scale < 0 {
						tensor.GemvAdd(s.target, s.tmp, wd, x)
						continue
					}
					sc := v[t.scale]
					if scCol != nil {
						sc = scCol[j]
					}
					tensor.GemvMulAdd(s.target, s.tmp, wd, x, sc)
				}
			}
		}
		if sp.batched {
			for si := range ts {
				s := &ts[si]
				if !s.t.batch {
					continue
				}
				tensor.GatherMulAdd(s.target, s.data, s.t.wide.index(nbrsB, eidsB), s.buf[:n])
			}
		}
		if runEnd {
			for ai, ag := range k.aggs {
				if ag.node.Op == gir.OpAggHier {
					foldInner(a.accs[ai], a.inner[ai], ag.node.Attr.OuterOp)
					initAcc(a.inner[ai], ag.node.Attr.InnerOp)
				}
			}
		}
		b0 = b1
	}
}

// execProg runs a bound program over one block: the VM's single
// instruction executor. An edge block passes its neighbour and edge ids;
// the row program passes zeroIdx[:1], a one-element block whose ids none
// of its instructions read. The block length is taken from the id slices
// so that the compiler can drop the column bounds checks.
func (k *Kernel) execProg(a *runArena, prog []specOp, nbrsB, eidsB []int32, g *graph.Graph) {
	v := a.svals
	n := len(nbrsB)
	eidsB = eidsB[:n]
	for pi := range prog {
		p := &prog[pi]
		switch p.code {
		case opLoadNbr:
			o, d := p.oc[:n], p.data
			for j, ix := range nbrsB {
				o[j] = d[ix]
			}
		case opLoadEdge:
			o, d := p.oc[:n], p.data
			for j, ix := range eidsB {
				o[j] = d[ix]
			}
		case opDot:
			d := p.dot
			tensor.GatherDot(p.oc[:n],
				k.wideData(a, d.a), d.a.index(nbrsB, eidsB),
				k.wideData(a, d.b), d.b.index(nbrsB, eidsB), d.a.w)
		case opStep:
			k.runStep(a, p.step, p.oc, nbrsB, eidsB, g)
		case opStoreWide:
			w, col, d := p.step.w, p.ac, p.data
			for j, e := range eidsB {
				copy(d[int(e)*w:(int(e)+1)*w], col[j*w:(j+1)*w])
			}
		case opAdd:
			o := p.oc[:n]
			switch {
			case p.aSc:
				s, b := v[p.a], p.bc[:n]
				for j := range o {
					o[j] = s + b[j]
				}
			case p.bSc:
				a, s := p.ac[:n], v[p.b]
				for j := range o {
					o[j] = a[j] + s
				}
			default:
				a, b := p.ac[:n], p.bc[:n]
				for j := range o {
					o[j] = a[j] + b[j]
				}
			}
		case opSub:
			o := p.oc[:n]
			switch {
			case p.aSc:
				s, b := v[p.a], p.bc[:n]
				for j := range o {
					o[j] = s - b[j]
				}
			case p.bSc:
				a, s := p.ac[:n], v[p.b]
				for j := range o {
					o[j] = a[j] - s
				}
			default:
				a, b := p.ac[:n], p.bc[:n]
				for j := range o {
					o[j] = a[j] - b[j]
				}
			}
		case opMul:
			o := p.oc[:n]
			switch {
			case p.aSc:
				s, b := v[p.a], p.bc[:n]
				for j := range o {
					o[j] = s * b[j]
				}
			case p.bSc:
				a, s := p.ac[:n], v[p.b]
				for j := range o {
					o[j] = a[j] * s
				}
			default:
				a, b := p.ac[:n], p.bc[:n]
				for j := range o {
					o[j] = a[j] * b[j]
				}
			}
		case opDiv:
			o := p.oc[:n]
			switch {
			case p.aSc:
				s, b := v[p.a], p.bc[:n]
				for j := range o {
					o[j] = s / b[j]
				}
			case p.bSc:
				a, s := p.ac[:n], v[p.b]
				for j := range o {
					o[j] = a[j] / s
				}
			default:
				a, b := p.ac[:n], p.bc[:n]
				for j := range o {
					o[j] = a[j] / b[j]
				}
			}
		case opNeg:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				o[j] = -a[j]
			}
		case opExp:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				o[j] = float32(math.Exp(float64(a[j])))
			}
		case opLog:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				o[j] = float32(math.Log(float64(a[j])))
			}
		case opLeakyReLU:
			o, a, c := p.oc[:n], p.ac[:n], p.c
			for j := range o {
				x := a[j]
				if x < 0 {
					x *= c
				}
				o[j] = x
			}
		case opReLU:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				x := a[j]
				if x < 0 {
					x = 0
				}
				o[j] = x
			}
		case opSigmoid:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				o[j] = 1 / (1 + float32(math.Exp(float64(-a[j]))))
			}
		case opTanh:
			o, a := p.oc[:n], p.ac[:n]
			for j := range o {
				o[j] = float32(math.Tanh(float64(a[j])))
			}
		case opMulConst:
			o, a, c := p.oc[:n], p.ac[:n], p.c
			for j := range o {
				o[j] = c * a[j]
			}
		case opAddConst:
			o, a, c := p.oc[:n], p.ac[:n], p.c
			for j := range o {
				o[j] = c + a[j]
			}
		case opLeakyReLUGrad:
			o := p.oc[:n]
			for j := range o {
				if p.opA(v, j) > 0 {
					o[j] = p.opB(v, j)
				} else {
					o[j] = p.c * p.opB(v, j)
				}
			}
		case opReLUGrad:
			o := p.oc[:n]
			for j := range o {
				if p.opA(v, j) > 0 {
					o[j] = p.opB(v, j)
				} else {
					o[j] = 0
				}
			}
		case opSigmoidGrad:
			o := p.oc[:n]
			for j := range o {
				y := p.opA(v, j)
				o[j] = p.opB(v, j) * y * (1 - y)
			}
		case opTanhGrad:
			o := p.oc[:n]
			for j := range o {
				y := p.opA(v, j)
				o[j] = p.opB(v, j) * (1 - y*y)
			}
		case opCopy:
			copy(p.oc[:n], p.ac[:n])
		case opStoreMat:
			if p.aSc {
				s, d := v[p.a], p.data
				for _, e := range eidsB {
					d[e] = s
				}
			} else {
				a, d := p.ac[:n], p.data
				for j, e := range eidsB {
					d[e] = a[j]
				}
			}
		case opAccScalar:
			t := p.data
			s0 := t[0]
			if p.aSc {
				s := v[p.a]
				for j := 0; j < n; j++ {
					s0 += s
				}
			} else {
				a := p.ac[:n]
				for j := range a {
					s0 += a[j]
				}
			}
			t[0] = s0
		case opStoreBuf:
			if p.aSc {
				s, d := v[p.a], p.data[:n]
				for j := range d {
					d[j] = s
				}
			} else {
				copy(p.data[:n], p.ac[:n])
			}
		}
	}
}

// wideData returns the backing data ws indexes into: the bound edge
// leaf's tensor, the current row's vector, or an opStep's block column.
func (k *Kernel) wideData(a *runArena, ws wideSrc) []float32 {
	switch ws.from {
	case fromLeaf:
		return k.specLeafData[ws.ref]
	case fromRowVec:
		return a.rowVec[ws.ref]
	}
	return a.wcols[ws.ref]
}

// runStep runs one opStep over a block: evalStep once per edge, in edge
// order, with every operand slot viewed in place and the output written
// to row j of the step's block column out.
func (k *Kernel) runStep(a *runArena, ss *specStep, out []float32, nbrsB, eidsB []int32, g *graph.Graph) {
	view, w := a.view, ss.w
	for j, eid := range eidsB {
		for i := range ss.ins {
			in := &ss.ins[i]
			switch {
			case in.bank < 0:
				ix, sw := int(in.src.index(nbrsB, eidsB)[j]), in.src.w
				view[in.slot] = k.wideData(a, in.src)[ix*sw : (ix+1)*sw]
			case a.cols[in.bank] != nil:
				view[in.slot] = a.cols[in.bank][j : j+1]
			default:
				view[in.slot] = a.svals[in.bank : in.bank+1] // row-constant
			}
		}
		view[ss.st.out] = out[j*w : (j+1)*w]
		et := 0
		if k.usesEdgeType {
			et = int(g.EdgeTypes[eid])
		}
		evalStep(ss.st, view, k.paramT, et)
	}
}

// opA reads instruction operand a for block element j.
func (p *specOp) opA(v []float32, j int) float32 {
	if p.aSc {
		return v[p.a]
	}
	return p.ac[j]
}

// opB reads instruction operand b for block element j.
func (p *specOp) opB(v []float32, j int) float32 {
	if p.bSc {
		return v[p.b]
	}
	return p.bc[j]
}

// scaledAccumulate folds s·src into acc under kind with the product
// rounded before the fold — the same two roundings as a Mul
// step followed by accumulate.
func scaledAccumulate(acc, src []float32, s float32, kind gir.AggKind) {
	switch kind {
	case gir.AggMax:
		for j := range acc {
			p := s * src[j]
			if p > acc[j] {
				acc[j] = p
			}
		}
	case gir.AggMin:
		for j := range acc {
			p := s * src[j]
			if p < acc[j] {
				acc[j] = p
			}
		}
	default: // sum & mean accumulate sums
		tensor.VecMulAdd(acc, src[:len(acc)], s)
	}
}
