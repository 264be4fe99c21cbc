package kernels

import (
	"math/rand"
	"testing"

	"seastar/internal/device"
	"seastar/internal/fusion"
	"seastar/internal/gir"
	"seastar/internal/graph"
)

func TestGroupSizeTable(t *testing.T) {
	cases := []struct {
		fa       bool
		block    int
		maxWidth int
		want     int
	}{
		{true, 256, 1, 1},
		{true, 256, 2, 2},
		{true, 256, 3, 2}, // largest power of two ≤ 3
		{true, 256, 16, 16},
		{true, 256, 602, 256}, // capped at block size
		{true, 64, 602, 64},
		{false, 256, 16, 256}, // Basic: whole block per vertex
	}
	for _, c := range cases {
		cfg := Config{BlockSize: c.block, FeatureAdaptive: c.fa}
		if got := groupSize(cfg, c.maxWidth); got != c.want {
			t.Errorf("groupSize(fa=%v block=%d width=%d) = %d, want %d",
				c.fa, c.block, c.maxWidth, got, c.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BlockSize != 256 {
		t.Fatalf("default block size %d", cfg.BlockSize)
	}
	d := DefaultConfig()
	if !d.FeatureAdaptive || d.Sched != device.SchedHardware {
		t.Fatalf("DefaultConfig: %+v", d)
	}
}

func TestBasicVariantChargesLowActiveFraction(t *testing.T) {
	// At feature width 1, the Basic configuration (one vertex per
	// 256-thread block) must be slower than FA purely through the
	// active-thread bandwidth model.
	rng := rand.New(rand.NewSource(62))
	g := graph.PowerLaw(rng, 4000, 64).SortByDegree()
	b := gir.NewBuilder()
	b.VFeature("h", 1)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").AggSum()
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fusion.Partition(fusion.Optimize(dag))
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(plan.Units[0], plan.Materialized(nil)[plan.Units[0]], nil)
	if err != nil {
		t.Fatal(err)
	}
	basic := device.New(device.GTX1080Ti)
	k.LaunchOnly(basic, g, Config{BlockSize: 256, FeatureAdaptive: false})
	fa := device.New(device.GTX1080Ti)
	k.LaunchOnly(fa, g, Config{BlockSize: 256, FeatureAdaptive: true})
	if ratio := basic.ElapsedNs() / fa.ElapsedNs(); ratio < 2 {
		t.Fatalf("Basic/FA ratio %.2f at width 1, want ≥ 2", ratio)
	}
}
