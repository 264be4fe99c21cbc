package models

import (
	"math"
	"testing"

	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// TestTrainingForwardServes holds the construction the layer program
// exists for: at one seed, the Seastar system's forward (the program's nn
// lowering, compiled for training) yields logits bit for bit equal to the
// served model of the same architecture (serving's lowering, compiled for
// inference) on the same graph and features, in both SIMD modes. Nothing
// but the shared declaration makes the two agree.
func TestTrainingForwardServes(t *testing.T) {
	const seed, hidden = 13, 24
	for _, arch := range []string{"gcn", "gat", "appnp", "rgcn"} {
		ds := tinyHomo(t)
		if arch == "rgcn" {
			ds = tinyHetero(t)
		}
		for _, simd := range []bool{true, false} {
			prev := tensor.SetSIMD(simd)
			env := NewEnv(nil, ds, seed)
			var m Model
			var err error
			switch arch {
			case "gcn":
				m, err = NewGCN(env, SysSeastar, hidden)
			case "gat":
				m, err = NewGAT(env, SysSeastar, hidden)
			case "appnp":
				m, err = NewAPPNP(env, SysSeastar, hidden, 4, 0.1)
			case "rgcn":
				m, err = NewRGCN(env, SysSeastar, hidden)
			}
			if err != nil {
				t.Fatal(err)
			}
			trained := m.Forward(false).Value

			spec := serve.ModelSpec{Arch: arch, Hidden: hidden, Classes: ds.NumClasses, Alpha: 0.1, K: 4, Seed: seed}
			numRel := 1
			if env.G.EdgeTypes != nil {
				numRel = env.G.NumEdgeTypes
			}
			sm, err := serve.BuildModel(spec, ds.Feat.Cols(), numRel)
			if err != nil {
				t.Fatal(err)
			}
			fe := &serve.ForwardEnv{G: env.G, Feat: ds.Feat}
			serve.NormsFor(arch, nil, env.G, fe)
			served, err := sm.Forward(fe)
			tensor.SetSIMD(prev)
			if err != nil {
				t.Fatal(err)
			}
			if trained.Rows() != served.Rows() || trained.Cols() != served.Cols() {
				t.Fatalf("%s: trained logits %v, served %v", arch, trained.Shape(), served.Shape())
			}
			for i, x := range trained.Data() {
				if math.Float32bits(x) != math.Float32bits(served.Data()[i]) {
					t.Fatalf("%s simd=%v: trained and served logits differ (max %g)", arch, simd, tensor.MaxAbsDiff(trained, served))
				}
			}
			env.E.EndIteration()
		}
	}
}
