package models

import (
	"fmt"

	"seastar/internal/nn"
	"seastar/internal/program"
)

// NewRGCN builds a 2-layer R-GCN (input → hidden → classes) on sys; the
// graph must carry edge types (sorted per vertex for the Seastar path).
func NewRGCN(env *Env, sys System, hidden int) (Model, error) {
	if env.G.EdgeTypes == nil {
		return nil, fmt.Errorf("models: R-GCN requires a heterogeneous graph")
	}
	p := program.RGCN(env.spec(hidden), env.DS.Feat.Cols(), env.G.NumEdgeTypes)
	name := fmt.Sprintf("rgcn-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysDGLBMM, SysPyG, SysPyGBMM:
		return &rgcn{env.base(name, p), sys}, nil
	}
	return nil, unknownSystem("R-GCN", sys)
}

// rgcn is R-GCN on the DGL- and PyG-style systems, per-relation loops or
// batched (bmm):
// h'_v = σ( h_v W_self + Σ_r Σ_{u∈N_r(v)} 1/c_{v,r} · h_u W_r ).
type rgcn struct {
	base
	sys System
}

// Forward implements Model.
func (m *rgcn) Forward(training bool) *nn.Variable {
	return m.layer(m.env.E.ReLU(m.layer(m.env.X, "1")), "2")
}

func (m *rgcn) layer(h *nn.Variable, l string) *nn.Variable {
	self := m.env.E.MatMul(h, m.w["Wself"+l])
	ws, norm := m.w["Ws"+l], m.norms[program.NormEdgeRel]
	var agg *nn.Variable
	var err error
	switch m.sys {
	case SysDGL:
		agg, err = m.env.DGL.RGCNLoop(h, ws, norm)
	case SysDGLBMM:
		agg, err = m.env.DGL.RGCNBMM(h, ws, norm)
	case SysPyG:
		agg, err = m.env.PyG.RGCNLoop(h, ws, norm)
	default: // SysPyGBMM
		agg, err = m.env.PyG.RGCNBMM(h, ws, norm)
	}
	if err != nil {
		panic(err)
	}
	return m.env.E.Add(self, agg)
}
