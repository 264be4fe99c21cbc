// Package kernels implements the execution strategies of the Seastar
// reproduction:
//
//   - the fused seastar kernel generated from a fusion.Unit (paper
//     Algorithm 1): vertex-parallel edge-sequential execution with
//     feature-adaptive thread (FAT) groups, register aggregation, degree
//     sorting and dynamic load balancing (§6.3);
//   - DGL/minigun-style edge-parallel kernels that binary-search the CSR
//     offset array per edge and aggregate with atomics (§6.3, the paper's
//     baseline); and
//   - PyG-style gather / scatter-add primitives over materialized edge
//     tensors (§2.3).
//
// Every kernel computes real values on the CPU. The paper's figures are
// reproduced on a simulated device (internal/device): a fused kernel is
// charged there by LaunchOnly, separately from computing, so only the
// callers that reproduce a figure pay for the cost model; the baseline
// primitives take the device they charge.
package kernels

import (
	"fmt"
	"sync"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// Bindings resolves GIR leaves to tensors at execution time.
type Bindings struct {
	// VFeat maps vertex-feature keys to [N, d] tensors.
	VFeat map[string]*tensor.Tensor
	// EFeat maps edge-feature keys to [M, d] tensors.
	EFeat map[string]*tensor.Tensor
	// Params maps parameter keys to their tensors.
	Params map[string]*tensor.Tensor
	// Grad is the incoming gradient for LeafGrad placeholders.
	Grad *tensor.Tensor
	// Saved maps forward nodes to their materialized values for
	// LeafSaved references (forward leaves resolve through the fields
	// above instead).
	Saved map[*gir.Node]*tensor.Tensor
	// Inter maps nodes of the DAG being executed to values materialized
	// by earlier units of the same plan.
	Inter map[*gir.Node]*tensor.Tensor
}

// Config is the paper's Figure 12 variants: what a launch charges on the
// simulated device. It never changes what a kernel computes.
type Config struct {
	// BlockSize is the fixed CUDA block size (default 256).
	BlockSize int
	// FeatureAdaptive enables FAT groups (§6.3.1); when false each block
	// processes a single vertex ("Basic" in Figure 12).
	FeatureAdaptive bool
	// Sched selects the block scheduling strategy (§6.3.3).
	Sched device.SchedMode
}

// DefaultConfig is the full Seastar design: FAT groups + hardware dynamic
// scheduling (degree sorting is a property of the graph passed to Run).
func DefaultConfig() Config {
	return Config{BlockSize: 256, FeatureAdaptive: true, Sched: device.SchedHardware}
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 256
	}
	return c
}

// step is one operator inside a stage.
type step struct {
	node *gir.Node
	out  int   // output slot
	ins  []int // input slots (operator inputs; -1 for param inputs)
	// param is the resolved parameter node for MatMulTyped/T steps.
	param *gir.Node
}

// aggStep is an aggregation accumulator.
type aggStep struct {
	node *gir.Node
	in   int
	out  int
}

// leafLoad describes a leaf slot filled from a bound tensor.
type leafLoad struct {
	node *gir.Node
	slot int
	// src describes the index space: rowIndexed leaves load once per
	// row; otherwise per edge (by neighbour id or edge id).
	rowIndexed bool
	byEdgeID   bool // index with edge id (E-typed tensors)
}

// matOut describes a materialized output.
type matOut struct {
	node *gir.Node
	slot int
	// perEdge outputs write one row per edge; otherwise one per row.
	perEdge bool
}

// Kernel is a compiled seastar execution unit.
type Kernel struct {
	Unit *fusion.Unit
	Dir  gir.AggDir

	widths   []int
	numSlots int

	rowLeaves   []leafLoad // loaded once per row (locality-centric)
	edgeLeaves  []leafLoad // loaded per edge
	constLeaves []leafLoad // P-typed scalars/vectors loaded once per kernel

	preRow []step // row-typed ops independent of aggregation
	edge   []step // per-edge stage (S-E-E chains)
	aggs   []aggStep
	post   []step // row-typed ops after aggregation

	mats []matOut

	// Neighbour-typed materializations cannot be written from the row
	// loop (their value varies per edge within a row), so they are
	// produced by a separate per-vertex sweep: sweepLoads (indices into
	// edgeLeaves) are loaded at the sweep vertex, sweepSteps re-derive
	// the chain, and nbrMats are written one row per vertex. This is
	// what lets an A:D kernel save an S-typed intermediate (or an A:S
	// kernel a D-typed one) for the backward pass without races.
	nbrMats    []matOut
	sweepLoads []int
	sweepSteps []step

	usesEdgeType bool
	hier         bool

	// The VM plan (see specialize.go) every launch runs; specLeafData,
	// specWd and specMatData are per-launch raw data views resolved
	// alongside the binding slices.
	spec         *specPlan
	specLeafData [][]float32
	specWd       [][]float32
	specMatData  [][]float32

	// CPU execution state reused across launches so a steady-state Run
	// allocates (almost) nothing. All of it is guarded by mu: the
	// engine executes units serially, so the lock is uncontended.
	mu     sync.Mutex
	arenas []*runArena
	runID  uint64

	// Cached row partition, keyed by CSR identity and the worker bound
	// it was built for (tests vary sched.MaxProcs between launches).
	ranges     []sched.Range
	rangeCSR   *graph.CSR
	rangeProcs int

	// Resolved binding slices, reused between launches (cleared on
	// return so tensors are not pinned past the call).
	rowT, edgeT, constT, matT, nbrMatT []*tensor.Tensor
	paramT                             map[*gir.Node]*tensor.Tensor

	// launchBuf is LaunchOnly's reusable per-block cycle buffer (the
	// device copies what it needs during LaunchKernel).
	launchBuf []float64

	// obsLabel names this kernel in the obs attribution registry
	// (category "kern"). Compile defaults it to "unit <id>"; the exec
	// compiler overrides it with a pass-qualified label ("fwd/unit 3")
	// so forward and backward kernels attribute separately.
	obsLabel string
}

// rowType returns the graph type that is constant within a row.
func (k *Kernel) rowType() gir.GraphType { return k.Dir.OutType() }

func (k *Kernel) nbrType() gir.GraphType {
	if k.Dir == gir.AggToDst {
		return gir.TypeS
	}
	return gir.TypeD
}

// Compile lowers a seastar unit into an executable kernel. materialized
// lists the unit's nodes whose values must be written to device tensors
// (from fusion.Plan.Materialized). available is the set of nodes
// materialized anywhere in the plan: an external E-typed input outside it
// is RECOMPUTED inside this kernel per edge (materialization planning's
// memory optimization); nil means every external value is available.
func Compile(u *fusion.Unit, materialized []*gir.Node, available map[*gir.Node]bool) (*Kernel, error) {
	if u.Kind != fusion.KindSeastar {
		return nil, fmt.Errorf("kernels: unit %d is %s, not seastar", u.ID, u.Kind)
	}
	k := &Kernel{Unit: u, Dir: gir.AggToDst, obsLabel: fmt.Sprintf("unit %d", u.ID)}

	// The unit's aggregation direction: all aggs share one (enforced by
	// the fusion pass); units without aggregation default to A:D layout.
	for _, n := range u.Nodes {
		if n.Op.IsAgg() {
			k.Dir = n.Dir
			break
		}
	}

	inUnit := make(map[*gir.Node]bool, len(u.Nodes))
	for _, n := range u.Nodes {
		inUnit[n] = true
	}
	// Dead-step pruning: a unit node is lowered only if it reaches an
	// aggregation or a materialized value. The fusion pass groups nodes by
	// graph type, so a backward unit routinely carries edge chains whose
	// only consumers live in other units — which recompute them inline
	// rather than read them from here.
	live := make(map[*gir.Node]bool, len(u.Nodes))
	for _, m := range materialized {
		live[m] = true
	}
	for i := len(u.Nodes) - 1; i >= 0; i-- {
		n := u.Nodes[i]
		if n.Op.IsAgg() {
			live[n] = true
		}
		if live[n] {
			for _, in := range n.Inputs {
				if inUnit[in] {
					live[in] = true
				}
			}
		}
	}
	// dependsOnAgg marks unit nodes downstream of an aggregation.
	dependsOnAgg := make(map[*gir.Node]bool)
	for _, n := range u.Nodes {
		if n.Op.IsAgg() {
			dependsOnAgg[n] = true
			continue
		}
		for _, in := range n.Inputs {
			if inUnit[in] && dependsOnAgg[in] {
				dependsOnAgg[n] = true
			}
		}
	}

	slot := make(map[*gir.Node]int)
	addSlot := func(n *gir.Node) int {
		if s, ok := slot[n]; ok {
			return s
		}
		s := k.numSlots
		slot[n] = s
		k.numSlots++
		k.widths = append(k.widths, n.Dim())
		return s
	}

	// External inputs: leaves and other-unit values feeding this unit.
	// Forward declarations let load registration and recompute inlining
	// recurse into each other.
	var addExternal func(n *gir.Node) (int, error)
	var inline func(n *gir.Node) (int, error)

	addLoad := func(n *gir.Node, s int) {
		t := externalType(n)
		if t == gir.TypeP {
			// Parameter values used elementwise: loaded once per kernel.
			if !findLoad(k.constLeaves, s) {
				k.constLeaves = append(k.constLeaves, leafLoad{node: n, slot: s})
			}
			return
		}
		ld := leafLoad{node: n, slot: s}
		switch {
		case t == k.rowType():
			ld.rowIndexed = true
			k.rowLeaves = append(k.rowLeaves, ld)
		case t == gir.TypeE:
			ld.byEdgeID = true
			k.edgeLeaves = append(k.edgeLeaves, ld)
		default: // neighbour-typed
			k.edgeLeaves = append(k.edgeLeaves, ld)
		}
	}

	addExternal = func(n *gir.Node) (int, error) {
		if s, ok := slot[n]; ok {
			return s, nil
		}
		if n.Op != gir.OpLeaf && available != nil && !available[n] {
			// Not materialized anywhere: recompute it here per edge.
			// Edge-typed values take this path by design (§5.3), and so
			// do neighbour-typed intermediates, which a producing kernel
			// cannot materialize with one write per row.
			return inline(n)
		}
		s := addSlot(n)
		addLoad(n, s)
		return s, nil
	}

	// lowerInputs builds the input-slot list of an operator, routing
	// typed-matmul weights to the per-step parameter mechanism.
	lowerInputs := func(n *gir.Node) (ins []int, param *gir.Node, err error) {
		for _, in := range n.Inputs {
			if isParamLeaf(in) && (n.Op == gir.OpMatMulTyped || n.Op == gir.OpMatMulTypedT) {
				param = in
				ins = append(ins, -1)
				continue
			}
			if s, ok := slot[in]; ok && inUnit[in] {
				ins = append(ins, s)
				continue
			}
			s, err := addExternal(in)
			if err != nil {
				return nil, nil, err
			}
			ins = append(ins, s)
		}
		return ins, param, nil
	}

	markSpecial := func(n *gir.Node) {
		if n.Op == gir.OpAggHier {
			k.hier = true
		}
		if n.Op == gir.OpMatMulTyped || n.Op == gir.OpMatMulTypedT || n.Op == gir.OpAggHier {
			k.usesEdgeType = true
		}
	}

	// inline recomputes an external E-typed operator chain inside this
	// kernel's edge stage (materialization planning, §5.3).
	inline = func(n *gir.Node) (int, error) {
		if n.Op.IsAgg() {
			return 0, fmt.Errorf("kernels: cannot recompute aggregation %%%d inline", n.ID)
		}
		markSpecial(n)
		ins, param, err := lowerInputs(n)
		if err != nil {
			return 0, err
		}
		s := addSlot(n)
		k.edge = append(k.edge, step{node: n, out: s, ins: ins, param: param})
		return s, nil
	}

	for _, n := range u.Nodes {
		if !live[n] {
			continue
		}
		markSpecial(n)
		ins, param, err := lowerInputs(n)
		if err != nil {
			return nil, err
		}
		out := addSlot(n)
		switch {
		case n.Op.IsAgg():
			k.aggs = append(k.aggs, aggStep{node: n, in: ins[0], out: out})
		case dependsOnAgg[n]:
			k.post = append(k.post, step{node: n, out: out, ins: ins, param: param})
		case n.Type == k.rowType():
			k.preRow = append(k.preRow, step{node: n, out: out, ins: ins, param: param})
		default:
			k.edge = append(k.edge, step{node: n, out: out, ins: ins, param: param})
		}
	}

	for _, m := range materialized {
		s, ok := slot[m]
		if !ok {
			return nil, fmt.Errorf("kernels: materialized node %%%d not in unit %d", m.ID, u.ID)
		}
		if m.Type == k.nbrType() {
			// The value varies per edge within a row, so a per-row write
			// from the row loop would store only the last edge's value.
			// Re-derive it with a dedicated per-vertex sweep instead.
			if err := k.addNbrMat(m, s); err != nil {
				return nil, err
			}
			continue
		}
		k.mats = append(k.mats, matOut{node: m, slot: s, perEdge: m.Type == gir.TypeE})
	}
	var err error
	if k.spec, err = k.buildSpecPlan(); err != nil {
		return nil, err
	}
	return k, nil
}

// SetObsLabel renames the kernel's obs attribution entry (category
// "kern"). The exec compiler uses it to pass-qualify unit labels.
func (k *Kernel) SetObsLabel(label string) { k.obsLabel = label }

// addNbrMat registers a neighbour-typed materialization: it collects the
// edge-stage steps and leaf loads that m transitively depends on so the
// runtime can recompute the value once per vertex. A neighbour-typed
// operator's inputs are themselves neighbour-typed or parameters (any
// edge- or row-typed operand would change the result type), so the chain
// is always evaluable from per-vertex loads; anything else is a compile
// error rather than silent corruption.
func (k *Kernel) addNbrMat(m *gir.Node, s int) error {
	stepOf := make(map[*gir.Node]step, len(k.edge))
	for _, st := range k.edge {
		stepOf[st.node] = st
	}
	leafIdx := make(map[*gir.Node]int, len(k.edgeLeaves))
	for i, ld := range k.edgeLeaves {
		leafIdx[ld.node] = i
	}
	constSet := make(map[*gir.Node]bool, len(k.constLeaves))
	for _, ld := range k.constLeaves {
		constSet[ld.node] = true
	}
	inChain := make(map[*gir.Node]bool)
	for _, st := range k.sweepSteps {
		inChain[st.node] = true
	}
	loaded := make(map[int]bool, len(k.sweepLoads))
	for _, li := range k.sweepLoads {
		loaded[li] = true
	}

	var visit func(n *gir.Node) error
	visit = func(n *gir.Node) error {
		if inChain[n] {
			return nil
		}
		if st, ok := stepOf[n]; ok {
			inChain[n] = true
			for _, in := range n.Inputs {
				if st.param == in {
					continue // resolved through paramT at run time
				}
				if err := visit(in); err != nil {
					return err
				}
			}
			k.sweepSteps = append(k.sweepSteps, st) // dependencies first
			return nil
		}
		if constSet[n] {
			return nil // loaded once per launch into its slot
		}
		if li, ok := leafIdx[n]; ok {
			ld := k.edgeLeaves[li]
			if ld.byEdgeID {
				return fmt.Errorf("kernels: neighbour-typed node %%%d depends on edge-indexed %%%d and cannot be swept per vertex", m.ID, n.ID)
			}
			if !loaded[li] {
				loaded[li] = true
				k.sweepLoads = append(k.sweepLoads, li)
			}
			return nil
		}
		return fmt.Errorf("kernels: neighbour-typed node %%%d depends on %%%d, which is not available per vertex", m.ID, n.ID)
	}
	if err := visit(m); err != nil {
		return err
	}
	k.nbrMats = append(k.nbrMats, matOut{node: m, slot: s})
	return nil
}

// isParamLeaf reports whether n is a parameter leaf, directly or through
// a LeafSaved reference from a backward GIR.
func isParamLeaf(n *gir.Node) bool {
	if n.Op != gir.OpLeaf {
		return false
	}
	if n.LeafKind == gir.LeafParam {
		return true
	}
	return n.LeafKind == gir.LeafSaved && n.Ref != nil &&
		n.Ref.Op == gir.OpLeaf && n.Ref.LeafKind == gir.LeafParam
}

func findLoad(loads []leafLoad, slot int) bool {
	for _, l := range loads {
		if l.slot == slot {
			return true
		}
	}
	return false
}

// externalType returns the graph type governing how an external value is
// indexed inside the kernel.
func externalType(n *gir.Node) gir.GraphType { return n.Type }

// ExternalReads returns the non-leaf nodes whose materialized values this
// kernel loads at runtime (after recompute inlining, these are the true
// cross-unit dependencies — the plan's unit-pruning logic must use them
// rather than the raw node inputs).
func (k *Kernel) ExternalReads() []*gir.Node {
	var out []*gir.Node
	for _, lds := range [][]leafLoad{k.rowLeaves, k.edgeLeaves, k.constLeaves} {
		for _, ld := range lds {
			if ld.node.Op != gir.OpLeaf {
				out = append(out, ld.node)
			}
		}
	}
	return out
}

// MaxWidth returns the widest slot, which determines the FAT group size.
func (k *Kernel) MaxWidth() int {
	w := 1
	for _, x := range k.widths {
		if x > w {
			w = x
		}
	}
	return w
}

// groupSize returns the FAT group width: the largest power of two ≤ the
// feature width (§6.3.1), capped by the block size. Without feature
// adaptivity the whole block serves one vertex.
func groupSize(cfg Config, maxWidth int) int {
	if !cfg.FeatureAdaptive {
		return cfg.BlockSize
	}
	g := 1
	for g*2 <= maxWidth && g*2 <= cfg.BlockSize {
		g *= 2
	}
	return g
}
