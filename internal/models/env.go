// Package models trains the four GNNs of the paper's evaluation — GCN,
// GAT, APPNP and R-GCN — each on three systems; its tests declare GIN
// and mean-aggregator GraphSAGE as layer programs and train them on all
// three too. Seastar is not written here: it is the architecture's
// layer program (internal/program) lowered onto the nn engine, the same
// declaration serving runs. The DGL-style message-passing and PyG-style
// scatter/gather baselines (plus the bmm variants for R-GCN) stay
// hand-written, as the paper's comparison code, reading the program's
// weights. All systems compute the same function, which the tests assert,
// reproducing the paper's correctness methodology ("the same results as
// DGL", §7).
package models

import (
	"fmt"
	"math/rand"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/dgl"
	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/program"
	"seastar/internal/pyg"
)

// System selects the executing framework.
type System string

const (
	SysSeastar System = "seastar"
	SysDGL     System = "dgl"
	SysPyG     System = "pyg"
	// R-GCN additionally has the manually optimized baselines.
	SysDGLBMM System = "dgl-bmm"
	SysPyGBMM System = "pyg-bmm"
)

// Model is a trainable GNN producing [N, classes] logits.
type Model interface {
	Name() string
	Forward(training bool) *nn.Variable
	Params() []*nn.Variable
}

// Env bundles everything a model needs: the engine (and through it the
// simulated device), the degree-sorted graph, the dataset, and the
// per-system execution engines.
type Env struct {
	E   *nn.Engine
	G   *graph.Graph
	DS  *datasets.Dataset
	RT  *exec.Runtime
	DGL *dgl.Engine
	PyG *pyg.Engine

	// X is the input feature variable (resident on device, no grad).
	X *nn.Variable

	rng *rand.Rand
}

// NewEnv prepares a training environment on the given device. The graph
// is degree-sorted (Seastar's preprocessing, §6.3.3); row-id indirection
// keeps vertex ids stable so the baselines run on the same object. It
// panics if the graph and features alone exceed device memory; use
// NewEnvChecked when that is a reportable outcome.
func NewEnv(dev *device.Device, ds *datasets.Dataset, seed int64) *Env {
	env, err := NewEnvChecked(dev, ds, seed)
	if err != nil {
		panic(err)
	}
	return env
}

// EnvOptions tunes environment preparation.
type EnvOptions struct {
	// DegreeSort controls the §6.3.3 preprocessing: reorder CSR rows by
	// descending degree so balanced partitions and locality follow. On by
	// default; turning it off runs the raw edge order (for ablations and
	// the -degree-sort=false CLI flag).
	DegreeSort bool
}

// DefaultEnvOptions is the paper's configuration: degree sorting on.
func DefaultEnvOptions() EnvOptions { return EnvOptions{DegreeSort: true} }

// NewEnvChecked is NewEnv returning an out-of-memory error instead of
// panicking (the experiment harness reports such configurations as OOM,
// like the paper's "-" entries).
func NewEnvChecked(dev *device.Device, ds *datasets.Dataset, seed int64) (*Env, error) {
	return NewEnvWith(dev, ds, seed, DefaultEnvOptions())
}

// NewEnvWith is NewEnvChecked with explicit options.
func NewEnvWith(dev *device.Device, ds *datasets.Dataset, seed int64, opt EnvOptions) (env *Env, err error) {
	defer func() {
		if r := recover(); r != nil {
			if oom, ok := r.(*device.ErrOOM); ok {
				env, err = nil, oom
				return
			}
			panic(r)
		}
	}()
	e := nn.NewEngine(dev)
	g := ds.G
	if opt.DegreeSort {
		g = g.SortByDegree()
	}
	// Graph structure moves to the device once at program start (§6.1).
	if dev != nil {
		dev.MustAlloc(g.DeviceBytes())
	}
	env = &Env{
		E:   e,
		G:   g,
		DS:  ds,
		DGL: dgl.New(e, g),
		PyG: pyg.New(e, g),
		RT:  exec.NewRuntime(e, g),
		rng: rand.New(rand.NewSource(seed)),
	}
	env.X = e.Input(ds.Feat, "x")
	return env, nil
}

// spec is the configuration a model's program is declared from: hidden
// units, and the dataset's class count.
func (env *Env) spec(hidden int) program.Spec {
	return program.Spec{Hidden: hidden, Classes: env.DS.NumClasses}
}

// base is what a model holds on every system: its name, its env, the
// architecture's program, the program's weights — drawn from the env's
// seed in draw order, so equal seeds yield equal models across systems —
// and the graph normalizers the program binds.
type base struct {
	name  string
	env   *Env
	p     *program.Program
	w     map[string]*nn.Variable
	norms program.NormVars
}

func (env *Env) base(name string, p *program.Program) base {
	return base{name: name, env: env, p: p, w: p.Draw(env.E, env.rng), norms: p.NormInputs(env.E, env.G)}
}

// Name implements Model.
func (m *base) Name() string { return m.name }

// Params implements Model: the weights in draw order.
func (m *base) Params() []*nn.Variable { return m.p.Params(m.w) }

// seastar is the Seastar system of every model: the architecture's
// program lowered onto the env's engine (program.Lower), its plans
// compiled into fused kernels forward and backward.
type seastar struct {
	base
	net *program.Net
}

func (env *Env) seastar(name string, p *program.Program) (Model, error) {
	m := &seastar{base: env.base(name, p)}
	var err error
	if m.net, err = program.Lower(p, m.w); err != nil {
		return nil, err
	}
	return m, nil
}

// Forward implements Model.
func (m *seastar) Forward(training bool) *nn.Variable {
	out, err := m.net.Forward(m.env.RT, m.env.X, &m.norms)
	if err != nil {
		panic(err)
	}
	return out
}

func unknownSystem(model string, sys System) error {
	return fmt.Errorf("models: %s does not support system %q", model, sys)
}
