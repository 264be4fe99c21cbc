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

// GIN (Xu et al.) and GraphSAGE (Hamilton et al.) with a mean aggregator
// are not part of the paper's evaluation, and nothing serves or benchmarks
// them. They are declared here, in the layer-program grammar, to hold the
// paper's usability claim (§4): architectures beyond the four benchmarked
// ones are one vertex function each, and train on all three systems.

func wt(name string, shape ...int) program.Weight { return program.Weight{Name: name, Shape: shape} }

// ginProgram is a two-layer GIN, h' = MLP((1+ε)·h_v + Σ_{u∈N(v)} h_u):
// each layer's MLP is the dense phase of the next stage, the last one a
// dense-only stage. The self term is traced before the aggregation so
// that the fusion FSM's last-write-wins tie-break picks the aggregation
// as the Add's nearest parent, keeping both in one kernel (state-2
// fusion).
func ginProgram(s program.Spec, in int, eps float32) *program.Program {
	layer := func(width int, dense []program.Dense, h string) program.Stage {
		return program.Stage{
			Dense: dense,
			Plan: &program.Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("h", width)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					self := v.Self("h").MulScalar(1 + eps)
					return v.Nbr("h").AggSum().Add(self)
				})
			}},
			Values: []program.Bind{{Key: "h", Name: h}},
		}
	}
	return &program.Program{
		Weights: []program.Weight{wt("W1a", in, s.Hidden), wt("W1b", s.Hidden, s.Hidden),
			wt("W2a", s.Hidden, s.Hidden), wt("W2b", s.Hidden, s.Classes)},
		Stages: []program.Stage{
			layer(in, nil, ""),
			layer(s.Hidden, []program.Dense{{Out: "a1", W: "W1a", Act: program.ReLU}, {Out: "h1", In: "a1", W: "W1b", Act: program.ReLU}}, "h1"),
			{Dense: []program.Dense{{Out: "a2", W: "W2a", Act: program.ReLU}, {Out: "out", In: "a2", W: "W2b"}}},
		},
	}
}

// sageProgram is a two-layer mean-aggregator GraphSAGE,
// h' = h_v·W_self + mean_{u∈N(v)} h_u·W_nbr, the neighbour product hoisted
// ahead of the mean: a sum scaled by the centre's 1/in-degree, fused after
// the aggregation.
func sageProgram(s program.Spec, in int) *program.Program {
	layer := func(l string, width int, a program.Act) program.Stage {
		return program.Stage{
			Dense: []program.Dense{{Out: "self" + l, W: "Wself" + l}, {Out: "nbr" + l, W: "Wnbr" + l}},
			Plan: &program.Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("h", width)
				b.VFeature("invdeg", 1)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").AggSum().Mul(v.Self("invdeg"))
				})
			}},
			Values: []program.Bind{{Key: "h", Name: "nbr" + l}},
			Norms:  []program.NormBind{{Key: "invdeg", Ref: program.NormInDeg}},
			Plus:   "self" + l, Act: a,
		}
	}
	return &program.Program{
		Weights: []program.Weight{wt("Wself1", in, s.Hidden), wt("Wnbr1", in, s.Hidden),
			wt("Wself2", s.Hidden, s.Classes), wt("Wnbr2", s.Hidden, s.Classes)},
		Stages: []program.Stage{layer("1", s.Hidden, program.ReLU), layer("2", s.Classes, program.None)},
	}
}

// newGIN builds a 2-layer GIN with the given ε on sys.
func newGIN(env *Env, sys System, hidden int, eps float32) (Model, error) {
	p := ginProgram(env.spec(hidden), env.DS.Feat.Cols(), eps)
	name := "gin-" + string(sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &gin{env.base(name, p), sys, eps}, nil
	}
	return nil, unknownSystem("GIN", sys)
}

// gin is GIN on the DGL- and PyG-style systems.
type gin struct {
	base
	sys System
	eps float32
}

// Forward implements Model.
func (m *gin) Forward(training bool) *nn.Variable {
	e := m.env.E
	h := m.aggregate(m.env.X)
	h = e.ReLU(e.MatMul(e.ReLU(e.MatMul(h, m.w["W1a"])), m.w["W1b"]))
	h = m.aggregate(h)
	return e.MatMul(e.ReLU(e.MatMul(h, m.w["W2a"])), m.w["W2b"])
}

func (m *gin) aggregate(h *nn.Variable) *nn.Variable {
	var agg *nn.Variable
	if m.sys == SysDGL {
		agg = m.env.DGL.UpdateAllCopySum(h)
	} else {
		agg = m.env.PyG.ScatterAddDst(m.env.PyG.GatherSrc(h))
	}
	return m.env.E.Add(agg, m.env.E.MulScalar(h, 1+m.eps))
}

// newSAGE builds a 2-layer mean-aggregator GraphSAGE on sys.
func newSAGE(env *Env, sys System, hidden int) (Model, error) {
	p := sageProgram(env.spec(hidden), env.DS.Feat.Cols())
	name := "sage-" + string(sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &sage{env.base(name, p), sys}, nil
	}
	return nil, unknownSystem("GraphSAGE", sys)
}

// sage is mean-aggregator GraphSAGE on the DGL- and PyG-style systems.
type sage struct {
	base
	sys System
}

// Forward implements Model.
func (m *sage) Forward(training bool) *nn.Variable {
	return m.layer(m.env.E.ReLU(m.layer(m.env.X, "1")), "2")
}

func (m *sage) layer(h *nn.Variable, l string) *nn.Variable {
	e := m.env.E
	var sum *nn.Variable
	if m.sys == SysDGL {
		sum = m.env.DGL.UpdateAllCopySum(h)
	} else {
		sum = m.env.PyG.ScatterAddDst(m.env.PyG.GatherSrc(h))
	}
	mean := e.MulColVec(sum, m.norms[program.NormInDeg])
	return e.Add(e.MatMul(h, m.w["Wself"+l]), e.MatMul(mean, m.w["Wnbr"+l]))
}

func buildExtra(t *testing.T, name string, sys System) (Model, *Env) {
	t.Helper()
	ds := tinyHomo(t)
	env := NewEnv(device.New(device.V100), ds, 321)
	var m Model
	var err error
	switch name {
	case "gin":
		m, err = newGIN(env, sys, 8, 0.1)
	case "sage":
		m, err = newSAGE(env, sys, 8)
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
	if _, err := newGIN(env, System("x"), 8, 0.1); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := newSAGE(env, System("x"), 8); err == nil {
		t.Fatal("unknown system accepted")
	}
	g, err := newGIN(env, SysDGL, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gin-dgl" {
		t.Fatalf("name %q", g.Name())
	}
	s, err := newSAGE(env, SysPyG, 8)
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
	dag, err := ginProgram(program.Spec{Hidden: 4, Classes: 2}, 4, 0.1).Stages[0].Plan.Trace()
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
