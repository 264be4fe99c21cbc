package exec

import (
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

func TestEagerFreeingLowersBackwardPeak(t *testing.T) {
	// Run the un-fused GAT backward (many materialized intermediates in
	// a chain): eager freeing must release intermediates within the
	// iteration, so the resident bytes fall below the peak before
	// EndIteration — without it nothing is freed and the two coincide.
	rng := rand.New(rand.NewSource(91))
	g := graph.PowerLaw(rng, 2000, 8).SortByDegree()
	eu := tensor.Randn(rng, 0.5, 2000, 1)
	ev := tensor.Randn(rng, 0.5, 2000, 1)
	h := tensor.Randn(rng, 0.5, 2000, 16)

	c, err := CompileWith(gatDAG(t, 16), Options{NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(device.V100)
	e := nn.NewEngine(dev)
	rt := NewRuntime(e, g)
	euV := e.Param(eu, "eu")
	evV := e.Param(ev, "ev")
	hV := e.Param(h, "h")
	out, err := c.Apply(rt,
		map[string]*nn.Variable{"eu": euV, "ev": evV, "h": hV}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Backward(e.SumAll(e.Sigmoid(out)))

	if cur, peak := dev.CurrentBytes(), dev.PeakBytes(); cur >= peak {
		t.Fatalf("eager freeing ineffective: %d bytes resident at peak %d", cur, peak)
	}
	// The gradients must still be intact (freed buffers are accounting
	// objects; values were already copied out).
	if hV.Grad == nil || euV.Grad == nil {
		t.Fatal("gradients missing after eager freeing")
	}
	e.EndIteration()
	if dev.CurrentBytes() > int64(3*2000*(1+1+16))*4+4096 {
		t.Fatalf("leak after EndIteration: %d bytes", dev.CurrentBytes())
	}
}
