package fusion

import (
	"fmt"

	"seastar/internal/gir"
)

// UnitKind classifies how an execution unit runs.
type UnitKind int

const (
	// KindSeastar units execute as one fused graph kernel (Algorithm 1).
	KindSeastar UnitKind = iota
	// KindDense units are whole-tensor dense ops (vertex-typed matmuls)
	// dispatched to the DL backend, as the paper does for un-fused units.
	KindDense
	// KindParamGrad units reduce parameter gradients (dW = Σ xᵀg).
	KindParamGrad
)

// String names the kind (seastar, dense, paramgrad).
func (k UnitKind) String() string {
	switch k {
	case KindSeastar:
		return "seastar"
	case KindDense:
		return "dense"
	case KindParamGrad:
		return "paramgrad"
	default:
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
}

// Unit is one execution unit: a set of operators executed together.
type Unit struct {
	ID    int
	Kind  UnitKind
	Nodes []*gir.Node // topological order within the unit
}

// AggDir returns the unit's aggregation direction (units without an
// aggregation default to A:D, matching the kernel compiler's layout).
func (u *Unit) AggDir() gir.AggDir {
	for _, n := range u.Nodes {
		if n.Op.IsAgg() {
			return n.Dir
		}
	}
	return gir.AggToDst
}

// NbrType returns the vertex type that varies per edge within one of the
// unit's kernel rows: the source type for A:D layouts, destination for
// A:S. A value of this type is computed in the kernel's edge stage and
// therefore cannot be materialized by one write per row.
func (u *Unit) NbrType() gir.GraphType {
	if u.AggDir() == gir.AggToDst {
		return gir.TypeS
	}
	return gir.TypeD
}

// String renders the unit as one plan line: id, kind and the typed
// nodes it fuses.
func (u *Unit) String() string {
	s := fmt.Sprintf("unit %d [%s]:", u.ID, u.Kind)
	for _, n := range u.Nodes {
		s += fmt.Sprintf(" %%%d=%s<%s>", n.ID, n.Op, n.Type)
	}
	return s
}

// Plan is a DAG partitioned into execution units in dependency order.
type Plan struct {
	DAG    *gir.DAG
	Units  []*Unit
	unitOf map[*gir.Node]*Unit
	// materializeAll disables the recompute exemption for E-typed
	// intermediates (set by the un-fused ablation baseline, whose whole
	// point is to write every intermediate like the §2.3 systems do).
	materializeAll bool
}

// UnitOf returns the unit containing operator n (nil for leaves).
func (p *Plan) UnitOf(n *gir.Node) *Unit { return p.unitOf[n] }

// fsm states (§6.2, Figure 8). State 1 is the pre-aggregation stage
// accepting S-, D- and E-typed operators (S-E and E-E fusion); states 2
// and 3 follow A:D and A:S aggregations and accept only D- and S-typed
// operators respectively.
type state int

const (
	stStart state = iota
	stPre         // S/D/E chain before an aggregation
	stPostD       // after A:D
	stPostS       // after A:S
)

// symbol is an operator's FSM transition symbol.
type symbol int

const (
	symS symbol = iota
	symD
	symE
	symAD
	symAS
	symNone // unfusible operator
)

func symbolOf(n *gir.Node) symbol {
	if n.Op.IsAgg() {
		if n.Dir == gir.AggToDst {
			return symAD
		}
		return symAS
	}
	switch n.Op {
	case gir.OpMatMulP, gir.OpMatMulPT, gir.OpParamGradMM, gir.OpParamGradMMTyped:
		// Vertex-typed dense matmuls run as whole-tensor GEMMs in the
		// backend; parameter-gradient reductions have their own kernel.
		return symNone
	}
	switch n.Type {
	case gir.TypeS:
		return symS
	case gir.TypeD:
		return symD
	case gir.TypeE:
		return symE
	default:
		// P-typed elementwise ops (e.g. accumulating two weight
		// gradients) are whole-tensor backend ops, never graph kernels.
		return symNone
	}
}

// unitKindOf classifies an operator that starts its own unit.
func unitKindOf(n *gir.Node) UnitKind {
	switch n.Op {
	case gir.OpParamGradMM, gir.OpParamGradMMTyped:
		return KindParamGrad
	case gir.OpMatMulP, gir.OpMatMulPT:
		return KindDense
	}
	if n.Type == gir.TypeP && !n.Op.IsAgg() {
		return KindDense
	}
	return KindSeastar
}

// transition returns the next state, or false when the symbol is not
// fusible from s.
func transition(s state, sym symbol) (state, bool) {
	switch s {
	case stStart, stPre:
		switch sym {
		case symS, symD, symE:
			return stPre, true
		case symAD:
			return stPostD, true
		case symAS:
			return stPostS, true
		}
	case stPostD:
		if sym == symD {
			return stPostD, true
		}
	case stPostS:
		if sym == symS {
			return stPostS, true
		}
	}
	return 0, false
}

// Partition runs the seastar fusion FSM over d (paper §6.2): operators are
// visited in topological order; each tries to fuse with its nearest
// (topologically latest) operator parent — the paper's last-write-wins
// tie-break — when the FSM transition from that parent's state is valid.
// A fusion is additionally rejected when another input of the operator
// could transitively depend on the target unit (it starts no earlier than
// the unit's first node), which would create a cyclic unit dependency;
// this is a sound approximation that never triggers for seastar-shaped
// programs.
func Partition(d *gir.DAG) (*Plan, error) {
	pos := make(map[*gir.Node]int, len(d.Nodes))
	for i, n := range d.Nodes {
		pos[n] = i
	}

	states := make(map[*gir.Node]state)
	unitOf := make(map[*gir.Node]*Unit)
	var units []*Unit
	minPos := make(map[*Unit]int)
	// aggDir pins each unit's aggregation direction: a fused kernel
	// iterates a single CSR direction, so A:D and A:S cannot share one.
	aggDir := make(map[*Unit]gir.AggDir)
	hasAgg := make(map[*Unit]bool)

	newUnit := func(n *gir.Node) *Unit {
		u := &Unit{ID: len(units), Kind: unitKindOf(n), Nodes: []*gir.Node{n}}
		units = append(units, u)
		unitOf[n] = u
		minPos[u] = pos[n]
		return u
	}

	for _, n := range d.Nodes {
		if n.Op == gir.OpLeaf {
			continue
		}
		sym := symbolOf(n)
		if sym == symNone {
			newUnit(n)
			continue
		}
		// Nearest operator parent (last-write-wins).
		var nearest *gir.Node
		for _, in := range n.Inputs {
			if in.Op == gir.OpLeaf {
				continue
			}
			if nearest == nil || pos[in] > pos[nearest] {
				nearest = in
			}
		}
		fused := false
		if nearest != nil {
			if u, ok := unitOf[nearest]; ok && u.Kind == KindSeastar {
				dirOK := true
				if n.Op.IsAgg() && hasAgg[u] && aggDir[u] != n.Dir {
					dirOK = false
				}
				// The effective state is the join over ALL in-unit inputs,
				// not just the nearest: an input past the unit's
				// aggregation (post-agg state) forces the post-agg state,
				// otherwise an edge-stage operator could read an
				// aggregation result that the single-pass kernel has not
				// finalized yet.
				st := states[nearest]
				for _, in := range n.Inputs {
					if unitOf[in] == u {
						if s := states[in]; s == stPostD || s == stPostS {
							st = s
						}
					}
				}
				if next, valid := transition(st, sym); valid && dirOK && noEscape(n, u, unitOf, minPos[u], pos) {
					states[n] = next
					unitOf[n] = u
					u.Nodes = append(u.Nodes, n)
					if n.Op.IsAgg() {
						aggDir[u] = n.Dir
						hasAgg[u] = true
					}
					fused = true
				}
			}
		}
		if !fused {
			st, valid := transition(stStart, sym)
			if !valid {
				return nil, fmt.Errorf("fusion: operator %s cannot start a unit", n)
			}
			states[n] = st
			u := newUnit(n)
			if n.Op.IsAgg() {
				aggDir[u] = n.Dir
				hasAgg[u] = true
			}
		}
	}

	plan := &Plan{DAG: d, Units: units, unitOf: unitOf}
	if err := plan.orderUnits(); err != nil {
		return nil, err
	}
	return plan, nil
}

// PartitionUnfused puts every operator in its own execution unit — the
// no-fusion baseline used by the ablation benchmarks. Edge-typed
// intermediates then materialize as [M, d] tensors between kernels,
// exhibiting exactly the memory and traffic overhead the seastar fusion
// eliminates (§2.3).
func PartitionUnfused(d *gir.DAG) (*Plan, error) {
	unitOf := make(map[*gir.Node]*Unit)
	var units []*Unit
	for _, n := range d.Nodes {
		if n.Op == gir.OpLeaf {
			continue
		}
		u := &Unit{ID: len(units), Kind: unitKindOf(n), Nodes: []*gir.Node{n}}
		units = append(units, u)
		unitOf[n] = u
	}
	plan := &Plan{DAG: d, Units: units, unitOf: unitOf, materializeAll: true}
	if err := plan.orderUnits(); err != nil {
		return nil, err
	}
	return plan, nil
}

// noEscape reports whether all operator inputs of n are either inside u or
// start strictly before u's first node (and therefore cannot depend on u).
func noEscape(n *gir.Node, u *Unit, unitOf map[*gir.Node]*Unit, uMin int, pos map[*gir.Node]int) bool {
	for _, in := range n.Inputs {
		if in.Op == gir.OpLeaf {
			continue
		}
		if unitOf[in] == u {
			continue
		}
		if pos[in] >= uMin {
			return false
		}
	}
	return true
}

// orderUnits topologically sorts units by inter-unit data dependencies.
func (p *Plan) orderUnits() error {
	deps := make(map[*Unit]map[*Unit]bool)
	for _, u := range p.Units {
		deps[u] = make(map[*Unit]bool)
	}
	for _, u := range p.Units {
		for _, n := range u.Nodes {
			for _, in := range n.Inputs {
				src := in
				if in.Op == gir.OpLeaf {
					continue
				}
				du := p.unitOf[src]
				if du != nil && du != u {
					deps[u][du] = true
				}
			}
		}
	}
	var order []*Unit
	done := make(map[*Unit]bool)
	for len(order) < len(p.Units) {
		progressed := false
		for _, u := range p.Units {
			if done[u] {
				continue
			}
			ready := true
			for d := range deps[u] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				done[u] = true
				order = append(order, u)
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("fusion: cyclic unit dependency")
		}
	}
	for i, u := range order {
		u.ID = i
	}
	p.Units = order
	return nil
}

// recomputable reports whether a cross-unit value can be re-derived
// per edge inside a consuming seastar kernel instead of being written to
// device memory. This holds for edge-typed intermediates (the paper's
// §5.3 memory optimization) and for neighbour-typed intermediates of a
// seastar producer: those live in the producer's edge stage, so a
// one-write-per-row materialization could not capture them anyway — the
// consumer re-derives the value from the per-edge loads it already has.
func (p *Plan) recomputable(in *gir.Node) bool {
	if in.Type == gir.TypeE {
		return true
	}
	src := p.unitOf[in]
	return src != nil && src.Kind == KindSeastar && in.Type == src.NbrType()
}

// Materialized returns, for each unit, the nodes whose values must be
// written to device memory: unit outputs consumed by other units, DAG
// outputs, and nodes in the extra set (forward values the backward pass
// saves). Everything else stays in registers inside the fused kernel.
//
// This is the paper's materialization planning (§5.3, Figure 5) with its
// key memory optimization: an edge-typed (E) intermediate consumed only
// by other fused kernels is RECOMPUTED inside each consumer rather than
// written out as an [M, d] tensor — the consuming kernel re-derives it
// per edge from the values it already loads. Only E-values feeding
// un-fused units (dense / param-grad), saved for the backward pass, or
// escaping as DAG outputs are materialized.
func (p *Plan) Materialized(extra map[*gir.Node]bool) map[*Unit][]*gir.Node {
	need := make(map[*gir.Node]bool)
	for _, o := range p.DAG.Outputs {
		need[o] = true
	}
	for n := range extra {
		need[n] = true
	}
	for _, u := range p.Units {
		for _, n := range u.Nodes {
			for _, in := range n.Inputs {
				if in.Op == gir.OpLeaf {
					continue
				}
				if p.unitOf[in] == u {
					continue
				}
				if u.Kind == KindSeastar && !p.materializeAll && p.recomputable(in) {
					continue // recomputed in the consuming kernel
				}
				need[in] = true
			}
		}
	}
	out := make(map[*Unit][]*gir.Node, len(p.Units))
	for _, u := range p.Units {
		for _, n := range u.Nodes {
			if need[n] {
				out[u] = append(out[u], n)
			}
		}
	}
	return out
}
