package models

import (
	"testing"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/nn"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

func buildExtra(t *testing.T, name string, sys System) (Model, *Env) {
	t.Helper()
	ds := tinyHomo(t)
	env := NewEnv(device.New(device.V100), ds, 321)
	var m Model
	var err error
	switch name {
	case "gin":
		m, err = NewGIN(env, sys, 8, 0.1)
	case "sage":
		m, err = NewSAGE(env, sys, 8)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m, env
}

func TestExtraModelsAgreeAcrossSystems(t *testing.T) {
	for _, name := range []string{"gin", "sage"} {
		ref, refEnv := buildExtra(t, name, SysSeastar)
		refOut, refGrads := forwardAndGrads(t, ref, refEnv)
		for _, sys := range []System{SysDGL, SysPyG} {
			m, env := buildExtra(t, name, sys)
			out, grads := forwardAndGrads(t, m, env)
			if !tensor.AllClose(out, refOut, 1e-3) {
				t.Fatalf("%s %s: logits diverge by %g", name, sys,
					tensor.MaxAbsDiff(out, refOut))
			}
			for i := range grads {
				if !tensor.AllClose(grads[i], refGrads[i], 2e-3) {
					t.Fatalf("%s %s: grad %d diverges by %g", name, sys, i,
						tensor.MaxAbsDiff(grads[i], refGrads[i]))
				}
			}
		}
	}
}

func TestExtraModelsTrain(t *testing.T) {
	for _, name := range []string{"gin", "sage"} {
		m, env := buildExtra(t, name, SysSeastar)
		opt := nn.NewAdam(m.Params(), 0.01)
		var first, last float32
		for it := 0; it < 12; it++ {
			logits := m.Forward(true)
			loss := env.E.CrossEntropyMasked(logits, env.DS.Labels, env.DS.TrainMask)
			if it == 0 {
				first = loss.Value.At1(0)
			}
			last = loss.Value.At1(0)
			env.E.Backward(loss)
			opt.Step()
			env.E.EndIteration()
		}
		if last >= first {
			t.Fatalf("%s did not learn: %v -> %v", name, first, last)
		}
	}
}

func TestExtraModelNamesAndValidation(t *testing.T) {
	ds := tinyHomo(t)
	env := NewEnv(device.New(device.V100), ds, 1)
	if _, err := NewGIN(env, System("x"), 8, 0.1); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := NewSAGE(env, System("x"), 8); err == nil {
		t.Fatal("unknown system accepted")
	}
	g, err := NewGIN(env, SysDGL, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gin-dgl" {
		t.Fatalf("name %q", g.Name())
	}
	s, err := NewSAGE(env, SysPyG, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "sage-pyg" || len(s.Params()) != 4 {
		t.Fatalf("sage: %q %d", s.Name(), len(s.Params()))
	}
}

func TestGINSeastarFusesPostAggSelf(t *testing.T) {
	// The GIN body's post-aggregation Add must fuse into the
	// aggregation kernel (state-2 D-chain): the plan is the scaled-self
	// MulConst as one vertex-wise unit plus one fused {Agg, Add} kernel.
	dag, err := program.GIN(program.Spec{Hidden: 4, Classes: 2}, 4, 0.1).Stages[0].Plan.Trace()
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Compile(dag)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.FwdPlan.Units) != 2 {
		t.Fatalf("GIN forward units: %d, want 2", len(c.FwdPlan.Units))
	}
	fusedAdd := false
	for _, u := range c.FwdPlan.Units {
		hasAgg, hasAdd := false, false
		for _, n := range u.Nodes {
			if n.Op.IsAgg() {
				hasAgg = true
			}
			if n.Op == gir.OpAdd {
				hasAdd = true
			}
		}
		if hasAgg && hasAdd {
			fusedAdd = true
		}
	}
	if !fusedAdd {
		t.Fatal("post-aggregation Add did not fuse with the aggregation")
	}
}
