package models

import (
	"fmt"
	"reflect"
	"testing"

	"seastar/internal/exec"
	"seastar/internal/program"
)

// unitCoverage renders the VM plan of every seastar unit of c, forward
// then backward, e.g. "fwd/1 scaled-gather".
func unitCoverage(c *exec.CompiledUDF) []string {
	var out []string
	for i, p := range []*exec.Pass{c.Fwd, c.Bwd} {
		for _, u := range p.Plan.Units {
			if k := p.Kernel(u); k != nil {
				out = append(out, fmt.Sprintf("%s/%d %s", [...]string{"fwd", "bwd"}[i], u.ID, k.Specialized()))
			}
		}
	}
	return out
}

// TestSpecializationCoverage is the grammar's ledger of record: every
// seastar unit of every stage of the table's GCN, GAT and R-GCN, and of
// the first stage of each other built-in model, with the VM plan it
// compiled to. Every aggregating unit of GCN, GAT, GraphSAGE and APPNP
// must match the grammar (no step[k]), forward and backward; the R-GCN
// units that run edge steps outside it through opSteps are listed with
// their step counts, so a grammar regression or a silent new opStep shows
// up as a diff here rather than as a slower benchmark.
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
	const noAgg = "row-only"
	cases := []struct {
		model string
		c     *exec.CompiledUDF
		want  []string
	}{
		// Every stage of the table's GCN, GAT and R-GCN. h·W is a dense op
		// before the plan, so the forward aggregation is unit 0. A stage
		// ending in an activation writes its gradient first, in a row-only
		// unit; the bias gradient (GCN) is a dense unit, hence GCN stage
		// 2's bwd/1.
		{"gcn/1", plan(program.GCN(spec, 16, 1), 0), []string{
			"fwd/0 scaled-gather",
			"bwd/0 " + noAgg,
			"bwd/1 gather",
		}},
		{"gcn/2", plan(program.GCN(spec, 16, 1), 1), []string{
			"fwd/0 scaled-gather",
			"bwd/1 gather",
		}},
		{"gat/1", plan(program.GAT(spec, 16, 1), 0), []string{
			"fwd/0 chain[3]+scalar-agg",
			"fwd/1 chain[1]+scaled-gather",
			"bwd/0 " + noAgg,
			"bwd/1 scaled-gather",
			"bwd/2 dot[1]+chain[3]+scalar-agg",
			"bwd/3 dot[1]+chain[4]+scalar-agg",
			"bwd/4 dot[1]+chain[4]+scalar-agg",
		}},
		{"gat/2", plan(program.GAT(spec, 16, 1), 1), []string{
			"fwd/0 chain[3]+scalar-agg",
			"fwd/1 chain[1]+scaled-gather",
			"bwd/0 scaled-gather",
			"bwd/1 dot[1]+chain[3]+scalar-agg",
			"bwd/2 dot[1]+chain[4]+scalar-agg",
			"bwd/3 dot[1]+chain[4]+scalar-agg",
		}},
		// The ReLU's gradient and the self and 1/in-degree gradients are
		// destination values: a row-only unit writes them ahead of the
		// neighbour gather.
		{"sage", plan(sageProgram(spec, 8), 0), []string{
			"fwd/0 gather",
			"bwd/0 " + noAgg,
			"bwd/1 gather",
		}},
		// The sampled mini-batch trainer's model: W inside the plan, after
		// the aggregation. bwd/2 is h's gradient, which training never
		// asks for.
		{"minibatch-sage", plan(program.MiniBatchSAGE(16, 8), 0), []string{
			"fwd/0 gather",
			"bwd/2 gather",
		}},
		{"gin", plan(ginProgram(spec, 16, 0.1), 0), []string{
			"fwd/0 " + noAgg,
			"fwd/1 gather",
			"bwd/0 gather",
			"bwd/1 " + noAgg,
		}},
		{"appnp", plan(program.APPNP(program.Spec{Hidden: 16, Classes: 16, Alpha: 0.1, K: 1}, 16, 1), 0), []string{
			"fwd/0 scaled-gather",
			"fwd/1 " + noAgg,
			"bwd/0 " + noAgg,
			// The wide destination chain MulConst(dy)·dn, and the dn
			// gradient beside it, run once per row ahead of the gather.
			"bwd/1 " + noAgg,
			"bwd/2 gather",
		}},
		{"rgcn/1", plan(program.RGCN(spec, 16, 3), 0), []string{
			// Both passes save a wide per-edge value ([M, d] typed
			// transform forward, the edge gradient backward), computed by
			// an opStep the term and the store read; backward also runs
			// MatMulTypedT as an opStep, after the row-only unit that
			// writes the ReLU's gradient (the self loop's gradient too).
			"fwd/0 step[1]+scaled-col→hier",
			"bwd/0 " + noAgg,
			"bwd/1 dot[1]+step[2]+col",
		}},
		{"rgcn/2", plan(program.RGCN(spec, 16, 3), 1), []string{
			"fwd/0 step[1]+scaled-col→hier",
			"bwd/0 dot[1]+step[2]+col",
		}},
	}
	for _, tc := range cases {
		if got := unitCoverage(tc.c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s coverage drifted:\n got  %q\n want %q", tc.model, got, tc.want)
		}
	}
}
