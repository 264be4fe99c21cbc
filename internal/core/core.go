// Package core is the user-facing Seastar system: a Session that owns a
// simulated GPU and a DL-backend engine, compiles vertex-centric programs
// (trace → graph-typed IR → autodiff → seastar fusion → kernel
// generation), and applies them to graphs as autograd operations. It is
// the paper's primary contribution assembled from the lower layers; the
// repository-root package re-exports this API.
package core

import (
	"fmt"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/kernels"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// Option configures a Session.
type Option func(*config) error

type config struct {
	profile    device.Profile
	workScale  float64
	degreeSort bool
}

// WithGPU selects the simulated GPU by name ("V100", "2080Ti", "1080Ti").
func WithGPU(name string) Option {
	return func(c *config) error {
		p, ok := device.ProfileByName(name)
		if !ok {
			return fmt.Errorf("core: unknown GPU %q", name)
		}
		c.profile = p
		return nil
	}
}

// WithWorkScale declares that graphs in this session are instantiated at
// the given fraction of full scale; simulated time and memory are
// extrapolated accordingly.
func WithWorkScale(s float64) Option {
	return func(c *config) error {
		if s <= 0 || s > 1 {
			return fmt.Errorf("core: work scale %v out of (0,1]", s)
		}
		c.workScale = s
		return nil
	}
}

// WithDegreeSort controls the §6.3.3 preprocessing applied by SetGraph:
// when on (the default), CSR rows are reordered by descending degree so
// the CPU partitioner and the simulated GPU scheduler see balanced work.
// Turning it off runs graphs in their raw edge order, for ablations.
func WithDegreeSort(on bool) Option {
	return func(c *config) error {
		c.degreeSort = on
		return nil
	}
}

// Session owns the simulated device and the autograd engine. Programs are
// compiled against a session and applied to a graph set with SetGraph.
type Session struct {
	Dev    *device.Device
	Engine *nn.Engine

	g          *graph.Graph
	rt         *exec.Runtime
	degreeSort bool
}

// NewSession creates a session (default: V100, full work scale).
func NewSession(opts ...Option) (*Session, error) {
	c := config{profile: device.V100, workScale: 1, degreeSort: true}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	dev := device.NewScaled(c.profile, c.workScale)
	return &Session{Dev: dev, Engine: nn.NewEngine(dev), degreeSort: c.degreeSort}, nil
}

// SetGraph installs the graph all subsequent Apply calls run over. Unless
// disabled with WithDegreeSort(false) the graph is degree-sorted (§6.3.3);
// its structure is charged to device memory (§6.1) and vertex ids are
// unchanged thanks to row-id indirection.
func (s *Session) SetGraph(g *graph.Graph) error {
	if s.degreeSort {
		g = g.SortByDegree()
	}
	if _, err := s.Dev.Alloc(g.DeviceBytes()); err != nil {
		return err
	}
	s.g = g
	s.rt = exec.NewRuntime(s.Engine, g)
	return nil
}

// Graph returns the session's (degree-sorted) graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// KernelConfig overrides the kernel strategy (the Figure-12 variants);
// the default is the full Seastar design.
func (s *Session) KernelConfig(cfg kernels.Config) error {
	if s.rt == nil {
		return fmt.Errorf("core: SetGraph before KernelConfig")
	}
	s.rt.Cfg = cfg
	return nil
}

// Input registers a non-trainable tensor (features, normalizers) resident
// on the device for the whole session.
func (s *Session) Input(t *tensor.Tensor, name string) *nn.Variable {
	return s.Engine.Input(t, name)
}

// Param registers a trainable parameter.
func (s *Session) Param(t *tensor.Tensor, name string) *nn.Variable {
	return s.Engine.Param(t, name)
}

// Program is a compiled vertex-centric program: both passes fused,
// optimized, and cached — the paper's @Seastar.compile result.
type Program struct {
	s *Session
	c *exec.CompiledUDF
}

// Compile traces the vertex-centric UDF produced by setup and lowers it.
// setup receives the tracer and returns the UDF, registering features and
// parameters on the way — the Go analogue of the paper's decorator plus
// v_feature dictionary:
//
//	prog, err := sess.Compile(func(b *seastar.Builder) seastar.UDF {
//	    b.VFeature("h", 16)
//	    b.VFeature("norm", 1)
//	    W := b.Param("W", 16, 8)
//	    return func(v *seastar.Vertex) *seastar.Value {
//	        return v.Nbr("h").MatMul(W).Mul(v.Nbr("norm")).AggSum()
//	    }
//	})
func (s *Session) Compile(setup func(b *gir.Builder) gir.UDF) (*Program, error) {
	b := gir.NewBuilder()
	udf := setup(b)
	dag, err := b.Build(udf)
	if err != nil {
		return nil, err
	}
	c, err := exec.Compile(dag)
	if err != nil {
		return nil, err
	}
	return &Program{s: s, c: c}, nil
}

// Apply executes the program over the session graph as one autograd
// operation, returning the per-vertex output variable.
func (p *Program) Apply(vfeat, efeat, params map[string]*nn.Variable) (*nn.Variable, error) {
	if p.s.rt == nil {
		return nil, fmt.Errorf("core: SetGraph before Apply")
	}
	return p.c.Apply(p.s.rt, vfeat, efeat, params)
}

// Inputs lists the program's required inputs in autograd order.
func (p *Program) Inputs() []exec.InputSpec { return p.c.Inputs }

// ForwardIR renders the optimized forward GIR (for inspection).
func (p *Program) ForwardIR() string { return p.c.Fwd.DAG.String() }

// BackwardIR renders the optimized backward GIR.
func (p *Program) BackwardIR() string { return p.c.Bwd.DAG.String() }

// PlanSummary describes the execution units of both passes — which
// operators fused into which kernels (the Figure-6 boxes).
func (p *Program) PlanSummary() string {
	out := "forward units:\n"
	for _, u := range p.c.Fwd.Plan.Units {
		out += "  " + u.String() + "\n"
	}
	out += "backward units:\n"
	for _, u := range p.c.Bwd.Plan.Units {
		out += "  " + u.String() + "\n"
	}
	return out
}

// EndIteration frees iteration-scoped device memory, recycles the storage
// of every value and gradient the iteration computed (read or copy what
// must outlive it first), and resets the tape.
func (s *Session) EndIteration() { s.Engine.EndIteration() }
