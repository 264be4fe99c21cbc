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

// writeExplain prints the EXPLAIN view: optimized forward GIR, backward
// GIR, and the fused execution-unit plans of both passes, each seastar
// unit annotated with its kernel's materialized outputs and
// specialization decision.
func writeExplain(w io.Writer, model string, c *exec.CompiledUDF) {
	fmt.Fprintf(w, "=== %s: forward GIR (optimized) ===\n%s", model, c.Fwd)
	if c.Grads != nil {
		fmt.Fprintf(w, "\n=== backward GIR (optimized) ===\n%s", c.Grads.DAG)
	}
	writeUnits(w, "forward", c.FwdPlan, func(u *fusion.Unit) string { return kernelNote(c.FwdKernel(u), c.MaterializedFwd(u)) })
	if c.BwdPlan != nil {
		writeUnits(w, "backward", c.BwdPlan, func(u *fusion.Unit) string { return kernelNote(c.BwdKernel(u), c.MaterializedBwd(u)) })
	}
}

func writeUnits(w io.Writer, pass string, plan *fusion.Plan, note func(*fusion.Unit) string) {
	fmt.Fprintf(w, "\n=== %s execution units (seastar fusion) ===\n", pass)
	for _, u := range plan.Units {
		fmt.Fprintln(w, " ", u)
		if n := note(u); n != "" {
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
