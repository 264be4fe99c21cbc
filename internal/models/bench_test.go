package models

import (
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/nn"
)

// BenchmarkFullGraphEpochGAT times one full-graph GAT training epoch
// shaped like the train-full-gat workload of benchmark/: amz_photo at
// scale 1 on the degree-sorted graph, hidden 64, Adam at lr 0.01, one
// forward, masked cross-entropy, backward and optimizer step per op, with
// the workload's scaled V100 attached. Two warm-up epochs fill the pools
// and are not timed.
func BenchmarkFullGraphEpochGAT(b *testing.B) {
	ds := datasets.MustLoad("amz_photo", 1, 1)
	env, err := NewEnvChecked(device.NewScaled(device.V100, ds.Scale), ds, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewGAT(env, SysSeastar, 64)
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(m.Params(), 0.01)
	epoch := func() {
		loss := env.E.CrossEntropyMasked(m.Forward(true), ds.Labels, ds.TrainMask)
		env.E.Backward(loss)
		opt.Step()
		env.E.EndIteration()
	}
	epoch()
	epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}
