package exec

import (
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

// TestPoolRecyclesIterationStorage trains a GAT-style program for a few
// iterations and checks that after the first one every tensor — forward
// values, eager-freed backward intermediates (§5.3), nn op outputs and
// gradients — is served from the engine's pool, and that recycling does
// not change the numbers.
func TestPoolRecyclesIterationStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.PowerLaw(rng, 60, 4).SortByDegree()
	c := compileGAT(t, 8)
	dev := device.New(device.V100)
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	eu := e.Param(tensor.Randn(rng, 1, 60, 1), "eu")
	ev := e.Param(tensor.Randn(rng, 1, 60, 1), "ev")
	h := e.Param(tensor.Randn(rng, 1, 60, 8), "h")

	var warmGrad *tensor.Tensor
	var warm tensor.PoolStats
	for it := 0; it < 3; it++ {
		out, err := c.Apply(rt,
			map[string]*nn.Variable{"eu": eu, "ev": ev, "h": h}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Backward(e.SumAll(e.Sigmoid(out)))
		if it == 0 {
			warmGrad = h.Grad.Clone()
		} else if !tensor.AllClose(h.Grad, warmGrad, 1e-6) {
			// Same inputs every iteration (no optimizer step), so pooled
			// buffers must reproduce the first iteration exactly.
			t.Fatalf("iteration %d: gradients drifted after pooling (max diff %g)",
				it, tensor.MaxAbsDiff(h.Grad, warmGrad))
		}
		eu.ZeroGrad()
		ev.ZeroGrad()
		h.ZeroGrad()
		e.EndIteration()
		if it == 0 {
			warm = e.PoolStats()
		}
	}
	st := e.PoolStats()
	if st.Misses != warm.Misses || st.Hits == warm.Hits {
		t.Fatalf("steady-state iterations allocated: after warm-up %+v, at the end %+v", warm, st)
	}
	if st.BytesOut != 0 || st.BytesIdle == 0 {
		t.Fatalf("EndIteration left storage checked out: %+v", st)
	}
}

// TestInferResultIsOwned: with a pool, Infer recycles every intermediate
// before it returns and hands the caller a result no later call can
// touch, bitwise equal to the pool-free run.
func TestInferResultIsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.PowerLaw(rng, 200, 5).SortByDegree()
	c, err := CompileWith(gatDAG(t, 8), Options{NoFusion: true}) // many materialized intermediates
	if err != nil {
		t.Fatal(err)
	}
	feats := func() map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{
			"eu": tensor.Randn(rng, 1, 200, 1), "ev": tensor.Randn(rng, 1, 200, 1), "h": tensor.Randn(rng, 1, 200, 8),
		}
	}
	first := feats()
	want, err := c.Infer(&InferEnv{G: g}, first, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := &InferEnv{G: g, Pool: tensor.NewPool()}
	got, err := c.Infer(env, first, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Infer(env, feats(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Fatalf("pooled result differs from the pool-free one, or a later call overwrote it (max diff %g)",
			tensor.MaxAbsDiff(got, want))
	}
	st := env.Pool.Stats()
	if st.BytesOut != 0 || st.Hits == 0 {
		t.Fatalf("intermediates not recycled: %+v", st)
	}
}
