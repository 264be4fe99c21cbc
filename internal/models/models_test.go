package models

import (
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// tinyHomo returns a small homogeneous dataset for cross-system checks.
func tinyHomo(t *testing.T) *datasets.Dataset {
	t.Helper()
	return datasets.MustLoad("cora", 0.02, 5) // ~54 vertices
}

func tinyHetero(t *testing.T) *datasets.Dataset {
	t.Helper()
	return datasets.MustLoad("aifb", 0.05, 5)
}

// buildModel constructs a model by name on a fresh env with a fixed seed.
func buildModel(t *testing.T, name string, sys System, ds *datasets.Dataset) (Model, *Env) {
	t.Helper()
	env := NewEnv(device.New(device.V100), ds, 99)
	var m Model
	var err error
	switch name {
	case "gcn":
		m, err = NewGCN(env, sys, 8)
	case "gat":
		m, err = NewGAT(env, sys, 8)
	case "appnp":
		m, err = NewAPPNP(env, sys, 8, 3, 0.1)
	case "rgcn":
		m, err = NewRGCN(env, sys, 8)
	default:
		t.Fatalf("unknown model %s", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m, env
}

// forwardAndGrads runs a forward pass, a masked cross-entropy backward,
// and returns (logits, per-param gradients).
func forwardAndGrads(t *testing.T, m Model, env *Env) (*tensor.Tensor, []*tensor.Tensor) {
	t.Helper()
	logits := m.Forward(true)
	loss := env.E.CrossEntropyMasked(logits, env.DS.Labels, env.DS.TrainMask)
	env.E.Backward(loss)
	var grads []*tensor.Tensor
	for _, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("%s: parameter %s has no gradient", m.Name(), p.Name())
		}
		grads = append(grads, p.Grad)
	}
	return logits.Value, grads
}

func TestHomogeneousModelsAgreeAcrossSystems(t *testing.T) {
	ds := tinyHomo(t)
	for _, model := range []string{"gcn", "gat", "appnp"} {
		ref, refEnv := buildModel(t, model, SysSeastar, ds)
		refOut, refGrads := forwardAndGrads(t, ref, refEnv)
		for _, sys := range []System{SysDGL, SysPyG} {
			m, env := buildModel(t, model, sys, ds)
			out, grads := forwardAndGrads(t, m, env)
			if !tensor.AllClose(out, refOut, 1e-3) {
				t.Fatalf("%s %s: logits diverge from seastar by %g",
					model, sys, tensor.MaxAbsDiff(out, refOut))
			}
			for i := range grads {
				if !tensor.AllClose(grads[i], refGrads[i], 2e-3) {
					t.Fatalf("%s %s: grad %d diverges by %g",
						model, sys, i, tensor.MaxAbsDiff(grads[i], refGrads[i]))
				}
			}
		}
	}
}

func TestRGCNAgreesAcrossAllFiveSystems(t *testing.T) {
	ds := tinyHetero(t)
	ref, refEnv := buildModel(t, "rgcn", SysSeastar, ds)
	refOut, refGrads := forwardAndGrads(t, ref, refEnv)
	for _, sys := range []System{SysDGL, SysDGLBMM, SysPyG, SysPyGBMM} {
		m, env := buildModel(t, "rgcn", sys, ds)
		out, grads := forwardAndGrads(t, m, env)
		if !tensor.AllClose(out, refOut, 1e-3) {
			t.Fatalf("rgcn %s: logits diverge by %g", sys, tensor.MaxAbsDiff(out, refOut))
		}
		for i := range grads {
			if !tensor.AllClose(grads[i], refGrads[i], 2e-3) {
				t.Fatalf("rgcn %s: grad %d diverges by %g", sys, i,
					tensor.MaxAbsDiff(grads[i], refGrads[i]))
			}
		}
	}
}

func TestModelsTrainToLowerLoss(t *testing.T) {
	ds := tinyHomo(t)
	for _, name := range []string{"gcn", "gat", "appnp"} {
		m, env := buildModel(t, name, SysSeastar, ds)
		opt := nn.NewAdam(m.Params(), 0.01)
		var first, last float32
		for it := 0; it < 15; it++ {
			logits := m.Forward(true)
			loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
			if it == 0 {
				first = loss.Value.At1(0)
			}
			last = loss.Value.At1(0)
			env.E.Backward(loss)
			opt.Step()
			env.E.EndIteration()
		}
		if last >= first {
			t.Fatalf("%s: loss did not drop (%v -> %v)", name, first, last)
		}
	}
}

func TestRGCNTrains(t *testing.T) {
	ds := tinyHetero(t)
	m, env := buildModel(t, "rgcn", SysSeastar, ds)
	opt := nn.NewAdam(m.Params(), 0.01)
	var first, last float32
	for it := 0; it < 10; it++ {
		logits := m.Forward(true)
		loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
		if it == 0 {
			first = loss.Value.At1(0)
		}
		last = loss.Value.At1(0)
		env.E.Backward(loss)
		opt.Step()
		env.E.EndIteration()
	}
	if last >= first {
		t.Fatalf("rgcn loss did not drop (%v -> %v)", first, last)
	}
}

func TestSeastarFasterThanBaselinesOnSkewedGraph(t *testing.T) {
	// Per-iteration simulated time ordering on a degree-skewed dataset:
	// the paper's Figure 10 claim at model granularity.
	ds := datasets.MustLoad("amz_photo", 0.2, 6)
	time := func(sys System) float64 {
		env := NewEnv(device.New(device.GTX1080Ti), ds, 99)
		m, err := NewGAT(env, sys, 16)
		if err != nil {
			t.Fatal(err)
		}
		start := env.E.Dev.ElapsedNs()
		logits := m.Forward(true)
		loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
		env.E.Backward(loss)
		return env.E.Dev.ElapsedNs() - start
	}
	sea := time(SysSeastar)
	d := time(SysDGL)
	p := time(SysPyG)
	if sea >= d || sea >= p {
		t.Fatalf("seastar (%.0f ns) should beat dgl (%.0f) and pyg (%.0f)", sea, d, p)
	}
}

func TestRGCNSystemTimeOrdering(t *testing.T) {
	// Table 3 ordering on a hetero dataset: Seastar and the bmm variants
	// are far faster than the per-relation loops.
	ds := tinyHetero(t)
	time := func(sys System) float64 {
		env := NewEnv(device.New(device.V100), ds, 99)
		m, err := NewRGCN(env, sys, 8)
		if err != nil {
			t.Fatal(err)
		}
		start := env.E.Dev.ElapsedNs()
		logits := m.Forward(true)
		loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
		env.E.Backward(loss)
		return env.E.Dev.ElapsedNs() - start
	}
	sea := time(SysSeastar)
	loop := time(SysDGL)
	bmm := time(SysDGLBMM)
	pygLoop := time(SysPyG)
	if sea >= loop/10 {
		t.Fatalf("seastar (%.0f) should be ≫ faster than dgl loop (%.0f)", sea, loop)
	}
	if bmm >= loop/10 {
		t.Fatalf("dgl-bmm (%.0f) should be ≫ faster than dgl loop (%.0f)", bmm, loop)
	}
	if pygLoop >= loop {
		t.Logf("note: pyg loop (%.0f) vs dgl loop (%.0f)", pygLoop, loop)
	}
}

func TestUnknownSystemRejected(t *testing.T) {
	ds := tinyHomo(t)
	env := NewEnv(device.New(device.V100), ds, 1)
	if _, err := NewGCN(env, System("tensorflow"), 8); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := NewGAT(env, System("x"), 8); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := NewAPPNP(env, System("x"), 8, 2, 0.1); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRGCNRequiresHeteroGraph(t *testing.T) {
	ds := tinyHomo(t)
	env := NewEnv(device.New(device.V100), ds, 1)
	if _, err := NewRGCN(env, SysSeastar, 8); err == nil {
		t.Fatal("R-GCN on homogeneous graph accepted")
	}
}

func TestModelNames(t *testing.T) {
	ds := tinyHomo(t)
	m, _ := buildModel(t, "gcn", SysSeastar, ds)
	if m.Name() != "gcn-seastar" {
		t.Fatalf("name: %s", m.Name())
	}
}
