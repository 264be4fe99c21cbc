package models

import (
	"fmt"

	"seastar/internal/nn"
	"seastar/internal/program"
)

// The models in this file are NOT part of the paper's evaluation; they
// demonstrate that the vertex-centric model covers architectures beyond
// the four benchmarked ones (the paper's usability claim in §4): GIN (Xu
// et al.) and GraphSAGE (Hamilton et al.) with a mean aggregator. Their
// programs are declared beside the served table but not registered in it.

// NewGIN builds a 2-layer GIN with the given ε.
func NewGIN(env *Env, sys System, hidden int, eps float32) (Model, error) {
	p := program.GIN(env.spec(hidden), env.DS.Feat.Cols(), eps)
	name := fmt.Sprintf("gin-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &gin{env.base(name, p), sys, eps}, nil
	}
	return nil, unknownSystem("GIN", sys)
}

// gin is GIN on the DGL- and PyG-style systems:
// h' = MLP((1+ε)·h_v + Σ_{u∈N(v)} h_u).
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

// NewSAGE builds a 2-layer mean-aggregator GraphSAGE.
func NewSAGE(env *Env, sys System, hidden int) (Model, error) {
	p := program.SAGE(env.spec(hidden), env.DS.Feat.Cols())
	name := fmt.Sprintf("sage-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &sage{env.base(name, p), sys}, nil
	}
	return nil, unknownSystem("GraphSAGE", sys)
}

// sage is mean-aggregator GraphSAGE on the DGL- and PyG-style systems:
// h' = h_v·W_self + mean_{u∈N(v)} h_u·W_nbr.
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
