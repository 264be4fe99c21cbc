package models

import (
	"fmt"
	"reflect"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/fusion"
	"seastar/internal/kernels"
	"seastar/internal/program"
)

// unitCoverage renders the closure compiler's verdict on every seastar
// unit of c, forward then backward: "fwd/1 scaled-gather" when the unit
// runs on the columnar VM, "bwd/0 INTERPRETED: <reason>" when it falls
// back to the step interpreter.
func unitCoverage(c *exec.CompiledUDF) []string {
	var out []string
	add := func(pass string, plan *fusion.Plan, kern func(*fusion.Unit) *kernels.Kernel) {
		for _, u := range plan.Units {
			if u.Kind != fusion.KindSeastar {
				continue
			}
			ok, name := kern(u).Specialized()
			if !ok {
				name = "INTERPRETED: " + name
			}
			out = append(out, fmt.Sprintf("%s/%d %s", pass, u.ID, name))
		}
	}
	add("fwd", c.FwdPlan, c.FwdKernel)
	add("bwd", c.BwdPlan, c.BwdKernel)
	return out
}

// TestSpecializationCoverage is the grammar's ledger of record: every
// seastar unit of every built-in model, with the pattern it compiled to
// or the reason it stayed interpreted. Every aggregating unit of GCN, GAT
// and GraphSAGE must specialize, forward and backward; the APPNP and
// R-GCN fallbacks are listed with their expected reasons, so a grammar
// regression or a silent new fallback shows up as a diff here rather than
// as a slower benchmark.
func TestSpecializationCoverage(t *testing.T) {
	// plan compiles, for training, stage i's vertex program of p.
	plan := func(p *program.Program, i int) *exec.CompiledUDF {
		t.Helper()
		dag, err := p.Stages[i].Plan.Trace()
		if err != nil {
			t.Fatal(err)
		}
		c, err := exec.Compile(dag)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	spec := program.Spec{Hidden: 16, Classes: 8, Alpha: 0.1, K: 1}
	const noAgg = "INTERPRETED: no aggregation to fuse into"
	cases := []struct {
		model string
		c     *exec.CompiledUDF
		want  []string
	}{
		// h·W is a dense op before the plan, so the aggregation is unit 0.
		{"gcn", plan(program.GCN(spec, 16, 1), 1), []string{
			"fwd/0 scaled-gather",
			"bwd/0 gather",
		}},
		{"gat", plan(program.GAT(spec, 16, 1), 0), []string{
			"fwd/0 chain[3]+scalar-agg",
			"fwd/1 chain[1]+scaled-gather",
			"bwd/0 scaled-gather",
			"bwd/1 dot[1]+chain[3]+scalar-agg",
			"bwd/2 dot[1]+chain[4]+scalar-agg",
			"bwd/3 dot[1]+chain[4]+scalar-agg",
		}},
		{"sage", plan(program.SAGE(spec, 8), 0), []string{
			"fwd/0 gather",
			"bwd/0 scaled-gather",
			"bwd/1 " + noAgg,
		}},
		// The sampled mini-batch trainer's model: W inside the plan.
		{"minibatch-sage", plan(program.MiniBatchSAGE(16, 8), 0), []string{
			"fwd/2 gather",
			"bwd/0 gather",
		}},
		{"gin", plan(program.GIN(spec, 16, 0.1), 0), []string{
			"fwd/0 " + noAgg,
			"fwd/1 gather",
			"bwd/0 gather",
			"bwd/1 " + noAgg,
		}},
		{"appnp", plan(program.APPNP(program.Spec{Hidden: 16, Classes: 16, Alpha: 0.1, K: 1}, 16, 1), 0), []string{
			"fwd/0 scaled-gather",
			"fwd/1 " + noAgg,
			"bwd/0 " + noAgg,
			// A wide elementwise chain over a neighbour value feeds the
			// aggregation: MulConst(dy)·dn, re-indexed by EdgeView.
			"bwd/1 INTERPRETED: wide Mul operands do not match scalar × gather",
		}},
		{"rgcn", plan(program.RGCN(spec, 16, 3), 0), []string{
			// Both passes save a wide per-edge value ([M, d] typed
			// transform forward, the edge gradient backward); backward
			// also needs MatMulTypedT.
			"fwd/0 INTERPRETED: wide per-edge materialization of slot 1",
			"bwd/0 INTERPRETED: wide per-edge materialization of slot 3",
		}},
	}
	for _, tc := range cases {
		if got := unitCoverage(tc.c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s coverage drifted:\n got  %q\n want %q", tc.model, got, tc.want)
		}
	}
}
