package main

import (
	"fmt"
	"io"
	"strings"

	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/kernels"
)

// writeExplain prints the EXPLAIN view: optimized forward GIR, backward
// GIR, and the fused execution-unit plans of both passes, each seastar
// unit annotated with its kernel's materialized outputs and
// specialization decision.
func writeExplain(w io.Writer, model string, c *exec.CompiledUDF) {
	fmt.Fprintf(w, "=== %s: forward GIR (optimized) ===\n%s", model, c.Fwd.DAG)
	if c.Bwd != nil {
		fmt.Fprintf(w, "\n=== backward GIR (optimized) ===\n%s", c.Bwd.DAG)
	}
	writeUnits(w, "forward", c.Fwd)
	if c.Bwd != nil {
		writeUnits(w, "backward", c.Bwd)
	}
}

func writeUnits(w io.Writer, name string, p *exec.Pass) {
	fmt.Fprintf(w, "\n=== %s execution units (seastar fusion) ===\n", name)
	for _, u := range p.Plan.Units {
		fmt.Fprintln(w, " ", u)
		if n := kernelNote(p.Kernel(u), p.Materialized(u)); n != "" {
			fmt.Fprintln(w, "   ", n)
		}
	}
}

// kernelNote summarizes a compiled seastar kernel for the EXPLAIN
// output: what materializes and the VM plan the closure compiler built.
// Nil (dense and paramgrad units carry no seastar kernel) yields an
// empty note.
func kernelNote(k *kernels.Kernel, mat []*gir.Node) string {
	if k == nil {
		return ""
	}
	var parts []string
	if len(mat) > 0 {
		ids := make([]string, len(mat))
		for i, m := range mat {
			ids[i] = fmt.Sprintf("%%%d", m.ID)
		}
		parts = append(parts, "materializes "+strings.Join(ids, ","))
	}
	parts = append(parts, "specialized="+k.Specialized())
	return "kernel: " + strings.Join(parts, ", ")
}
