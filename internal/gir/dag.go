package gir

import (
	"fmt"
	"sort"
	"strings"
)

// DAG is a traced (or derived) GIR computational graph. Nodes is in
// topological order: every node appears after all of its inputs.
type DAG struct {
	Nodes   []*Node
	Outputs []*Node
}

func newDAG(b *Builder, outputs []*Node) *DAG {
	return &DAG{Nodes: b.nodes, Outputs: outputs}
}

// NewDAG builds a DAG from explicit nodes, dropping nodes unreachable
// from the outputs. Surviving nodes keep their relative order (by prior
// ID) — construction order is the paper's tracing order, which the fusion
// FSM's last-write-wins tie-break depends on — and are then re-numbered.
// It is used by the autodiff engine and by optimizer passes when they
// rewrite graphs.
func NewDAG(outputs []*Node) *DAG {
	seen := make(map[*Node]bool)
	var order []*Node
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			visit(in)
		}
		order = append(order, n)
	}
	for _, o := range outputs {
		visit(o)
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	for i, n := range order {
		n.ID = i
	}
	return &DAG{Nodes: order, Outputs: outputs}
}

// Prune returns a copy of d containing only nodes reachable from the
// outputs (dead-code elimination's core step). Node objects are shared.
func (d *DAG) Prune() *DAG { return NewDAG(d.Outputs) }

// Leaves returns all leaf nodes in order.
func (d *DAG) Leaves() []*Node {
	var out []*Node
	for _, n := range d.Nodes {
		if n.Op == OpLeaf {
			out = append(out, n)
		}
	}
	return out
}

// ParamKeys returns the distinct parameter keys referenced, in first-use
// order.
func (d *DAG) ParamKeys() []string {
	var keys []string
	seen := map[string]bool{}
	for _, n := range d.Nodes {
		if n.Op == OpLeaf && n.LeafKind == LeafParam && !seen[n.Key] {
			seen[n.Key] = true
			keys = append(keys, n.Key)
		}
	}
	return keys
}

// FeatureKeys returns the distinct vertex-feature (src/dst) and
// edge-feature keys referenced.
func (d *DAG) FeatureKeys() (vertex, edge []string) {
	seenV, seenE := map[string]bool{}, map[string]bool{}
	for _, n := range d.Nodes {
		if n.Op != OpLeaf {
			continue
		}
		switch n.LeafKind {
		case LeafSrcFeat, LeafDstFeat:
			if !seenV[n.Key] {
				seenV[n.Key] = true
				vertex = append(vertex, n.Key)
			}
		case LeafEdgeFeat:
			if !seenE[n.Key] {
				seenE[n.Key] = true
				edge = append(edge, n.Key)
			}
		}
	}
	return vertex, edge
}

// Validate checks DAG invariants: topological order, output membership,
// aggregation typing, and leaf well-formedness.
func (d *DAG) Validate() error {
	pos := make(map[*Node]int, len(d.Nodes))
	for i, n := range d.Nodes {
		pos[n] = i
	}
	for i, n := range d.Nodes {
		for _, in := range n.Inputs {
			j, ok := pos[in]
			if !ok {
				return fmt.Errorf("gir: node %%%d has input outside the DAG", n.ID)
			}
			if j >= i {
				return fmt.Errorf("gir: node %%%d not topologically after input %%%d", n.ID, in.ID)
			}
		}
		if n.Op.IsAgg() && n.Type != n.Dir.OutType() {
			return fmt.Errorf("gir: aggregation %%%d direction %s but type %s", n.ID, n.Dir, n.Type)
		}
		if n.Op == OpLeaf && len(n.Inputs) != 0 {
			return fmt.Errorf("gir: leaf %%%d has inputs", n.ID)
		}
		if n.Op != OpLeaf && len(n.Inputs) == 0 {
			return fmt.Errorf("gir: operator %%%d has no inputs", n.ID)
		}
	}
	for _, o := range d.Outputs {
		if _, ok := pos[o]; !ok {
			return fmt.Errorf("gir: output %%%d not in DAG", o.ID)
		}
	}
	return nil
}

// String renders the DAG one node per line, in the style of Figure 6.
func (d *DAG) String() string {
	var b strings.Builder
	for _, n := range d.Nodes {
		b.WriteString(n.String())
		b.WriteByte('\n')
	}
	b.WriteString("outputs:")
	for _, o := range d.Outputs {
		fmt.Fprintf(&b, " %%%d", o.ID)
	}
	b.WriteByte('\n')
	return b.String()
}
