package models

import (
	"fmt"

	"seastar/internal/nn"
	"seastar/internal/program"
)

// NewGCN builds a 2-layer GCN (input → hidden → classes) on sys.
func NewGCN(env *Env, sys System, hidden int) (Model, error) {
	p := program.GCN(env.spec(hidden), env.DS.Feat.Cols(), 1)
	name := fmt.Sprintf("gcn-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &gcn{env.base(name, p), sys}, nil
	}
	return nil, unknownSystem("GCN", sys)
}

// gcn is GCN on the DGL- and PyG-style systems:
// h' = σ(b + Σ_{u∈N(v)} norm_u · h_u W), sigmoid between the layers.
type gcn struct {
	base
	sys System
}

// Forward implements Model.
func (m *gcn) Forward(training bool) *nn.Variable {
	return m.layer(m.env.E.Sigmoid(m.layer(m.env.X, "1")), "2")
}

func (m *gcn) layer(h *nn.Variable, l string) *nn.Variable {
	e := m.env.E
	t := e.MulColVec(e.MatMul(h, m.w["W"+l]), m.norms[program.NormInDeg])
	var agg *nn.Variable
	if m.sys == SysDGL {
		agg = m.env.DGL.UpdateAllCopySum(t)
	} else {
		agg = m.env.PyG.ScatterAddDst(m.env.PyG.GatherSrc(t))
	}
	return e.AddRow(agg, m.w["b"+l])
}
