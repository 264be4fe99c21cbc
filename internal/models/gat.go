package models

import (
	"fmt"

	"seastar/internal/nn"
	"seastar/internal/program"
)

// NewGAT builds a 2-layer single-head GAT (input → hidden → classes) on
// sys.
func NewGAT(env *Env, sys System, hidden int) (Model, error) {
	p := program.GAT(env.spec(hidden), env.DS.Feat.Cols(), 1)
	name := fmt.Sprintf("gat-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &gat{env.base(name, p), sys}, nil
	}
	return nil, unknownSystem("GAT", sys)
}

// gat is GAT on the DGL- and PyG-style systems (Figure 2): scores
// eu = h·aU, ev = h·aV, attention softmax(LeakyReLU(eu_u + ev_v)), ReLU
// between the layers.
type gat struct {
	base
	sys System
}

const gatSlope = 0.2

// Forward implements Model.
func (m *gat) Forward(training bool) *nn.Variable {
	return m.layer(m.env.E.ReLU(m.layer(m.env.X, "1")), "2")
}

func (m *gat) layer(x *nn.Variable, l string) *nn.Variable {
	e := m.env.E
	h := e.MatMul(x, m.w["W"+l])
	eu := e.MatMul(h, m.w["aU"+l]) // [N,1]
	ev := e.MatMul(h, m.w["aV"+l])
	if m.sys == SysDGL {
		edges := m.env.DGL.ApplyEdgesUAddV(eu, ev)
		edges = e.LeakyReLU(edges, gatSlope)
		a := m.env.DGL.EdgeSoftmax(edges)
		return m.env.DGL.UpdateAllUMulESum(h, a)
	}
	p := m.env.PyG
	s := e.Add(p.GatherSrc(eu), p.GatherDst(ev))
	s = e.LeakyReLU(s, gatSlope)
	a := p.EdgeSoftmax(s)
	return p.ScatterAddDst(e.MulColVec(p.GatherSrc(h), a))
}
