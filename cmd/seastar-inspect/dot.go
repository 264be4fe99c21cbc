package main

import (
	"fmt"
	"io"
	"strings"

	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/kernels"
)

// writeDOT renders one pass of a compiled UDF as Graphviz: every GIR
// node is a box labelled with its graph type (S/D/E/P, A on
// aggregations) and per-row shape, fused execution units are drawn as
// clusters (the paper's Figure-6 boxes), leaves sit outside, and
// materialized tensors are shaded — everything that is NOT shaded inside
// a seastar cluster lives only in registers.
func writeDOT(w io.Writer, model, pass string, c *exec.CompiledUDF) error {
	var dag *gir.DAG
	var plan *fusion.Plan
	kern := c.FwdKernel
	mat := c.MaterializedFwd
	switch pass {
	case "fwd":
		dag, plan = c.Fwd, c.FwdPlan
	case "bwd":
		if c.BwdPlan == nil {
			return fmt.Errorf("no backward plan (inference-only compile)")
		}
		dag, plan = c.Grads.DAG, c.BwdPlan
		kern = c.BwdKernel
		mat = c.MaterializedBwd
	default:
		return fmt.Errorf("unknown pass %q (want fwd|bwd)", pass)
	}

	materialized := map[*gir.Node]bool{}
	for _, u := range plan.Units {
		for _, m := range mat(u) {
			materialized[m] = true
		}
	}
	for _, out := range dag.Outputs {
		materialized[out] = true
	}
	isOut := map[*gir.Node]bool{}
	for _, out := range dag.Outputs {
		isOut[out] = true
	}

	fmt.Fprintf(w, "digraph seastar_%s_%s {\n", model, pass)
	fmt.Fprintf(w, "  rankdir=TB;\n")
	fmt.Fprintf(w, "  labelloc=t;\n")
	fmt.Fprintf(w, "  label=%q;\n", fmt.Sprintf("%s %s: GIR + fused execution units", model, pass))
	fmt.Fprintf(w, "  node [shape=box, fontname=\"monospace\", fontsize=10];\n")

	// Leaves first, outside every cluster.
	for _, n := range dag.Nodes {
		if n.Op == gir.OpLeaf {
			fmt.Fprintf(w, "  n%d [label=%q, style=dashed];\n", n.ID, leafLabel(n))
		}
	}
	// One cluster per execution unit.
	for _, u := range plan.Units {
		fmt.Fprintf(w, "  subgraph cluster_u%d {\n", u.ID)
		fmt.Fprintf(w, "    label=%q;\n", clusterLabel(u, kern(u)))
		fmt.Fprintf(w, "    style=rounded;\n")
		fmt.Fprintf(w, "    color=%s;\n", clusterColor(u.Kind))
		for _, n := range u.Nodes {
			attrs := []string{fmt.Sprintf("label=%q", nodeLabel(n))}
			if materialized[n] {
				attrs = append(attrs, `style=filled`, `fillcolor=lightgoldenrod1`)
			}
			if isOut[n] {
				attrs = append(attrs, `peripheries=2`)
			}
			fmt.Fprintf(w, "    n%d [%s];\n", n.ID, strings.Join(attrs, ", "))
		}
		fmt.Fprintf(w, "  }\n")
	}
	// Data edges, labelled with the value's graph type.
	for _, n := range dag.Nodes {
		for _, in := range n.Inputs {
			fmt.Fprintf(w, "  n%d -> n%d [label=%q, fontsize=9];\n", in.ID, n.ID, edgeLabel(in))
		}
	}
	fmt.Fprintf(w, "}\n")
	return nil
}

// leafLabel names a leaf with its kind, key, graph type and shape, e.g.
// `h ⟨S⟩ [16]` or `saved %4 ⟨E⟩ [1]`.
func leafLabel(n *gir.Node) string {
	name := n.Key
	switch n.LeafKind {
	case gir.LeafSaved:
		if n.Ref != nil {
			name = fmt.Sprintf("saved %%%d %s", n.Ref.ID, n.Ref.Op)
		} else {
			name = "saved"
		}
	case gir.LeafGrad:
		name = "grad(out)"
	}
	return fmt.Sprintf("%s <%s> %v", name, n.Type, n.Shape)
}

// nodeLabel names an operator node: id, op, graph type, shape, plus the
// aggregation direction on agg nodes (A:D / A:S).
func nodeLabel(n *gir.Node) string {
	if n.Op.IsAgg() {
		return fmt.Sprintf("%%%d %s %s <%s> %v", n.ID, n.Op, n.Dir, n.Type, n.Shape)
	}
	return fmt.Sprintf("%%%d %s <%s> %v", n.ID, n.Op, n.Type, n.Shape)
}

func edgeLabel(in *gir.Node) string {
	return fmt.Sprintf("%s%v", in.Type, in.Shape)
}

// clusterLabel titles a unit box; seastar units carry their kernel's
// aggregation direction.
func clusterLabel(u *fusion.Unit, k *kernels.Kernel) string {
	label := fmt.Sprintf("unit %d [%s]", u.ID, u.Kind)
	if k != nil {
		label += " " + k.Dir.String()
	}
	return label
}

func clusterColor(kind fusion.UnitKind) string {
	switch kind {
	case fusion.KindSeastar:
		return "blue"
	case fusion.KindDense:
		return "darkgreen"
	default:
		return "red3"
	}
}
