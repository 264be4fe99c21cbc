package models

import (
	"fmt"

	"seastar/internal/nn"
	"seastar/internal/program"
)

// NewAPPNP builds an APPNP model (DGL's default configuration: hidden 64,
// K=10, α=0.1 — pass hidden/k/alpha explicitly).
func NewAPPNP(env *Env, sys System, hidden, k int, alpha float32) (Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: APPNP needs k ≥ 1 propagation steps, got %d", k)
	}
	s := env.spec(hidden)
	s.K, s.Alpha = k, alpha
	p := program.APPNP(s, env.DS.Feat.Cols(), 1)
	name := fmt.Sprintf("appnp-%s", sys)
	switch sys {
	case SysSeastar:
		return env.seastar(name, p)
	case SysDGL, SysPyG:
		return &appnp{env.base(name, p), sys, k, alpha}, nil
	}
	return nil, unknownSystem("APPNP", sys)
}

// appnp is APPNP on the DGL- and PyG-style systems: an MLP produces h0,
// then K personalized-PageRank steps h^{k+1} = (1-α)·D̂⁻½ A D̂⁻½ h^k + α·h0.
type appnp struct {
	base
	sys   System
	k     int
	alpha float32
}

// Forward implements Model.
func (m *appnp) Forward(training bool) *nn.Variable {
	e := m.env.E
	h0 := e.MatMul(e.ReLU(e.MatMul(m.env.X, m.w["W1"])), m.w["W2"])
	h := h0
	for step := 0; step < m.k; step++ {
		t := e.MulColVec(h, m.norms[program.NormSymSrc])
		if m.sys == SysDGL {
			t = m.env.DGL.UpdateAllCopySum(t)
		} else {
			t = m.env.PyG.ScatterAddDst(m.env.PyG.GatherSrc(t))
		}
		t = e.MulColVec(t, m.norms[program.NormSymDst])
		h = e.Add(e.MulScalar(t, 1-m.alpha), e.MulScalar(h0, m.alpha))
	}
	return h
}
