package kernels

import (
	"math/rand"
	"testing"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/refinterp"
	"seastar/internal/sched"
	"seastar/internal/tensor"
)

// The scheduler-equivalence property: for any vertex-centric program, the
// parallel edge-balanced work-stealing execution and the serial
// execution must produce bit-identical results, and both must agree with
// the definitional reference interpreter. The graphs are skewed (Zipf / power-law) with
// random edge types so that hierarchical-aggregation type boundaries land
// in the middle of scheduler chunks.

// equivProgram pairs a program with the feature widths it needs.
type equivProgram struct {
	name  string
	setup func(b *gir.Builder) gir.UDF
}

func equivPrograms(dim int) []equivProgram {
	return []equivProgram{
		{
			// Edge-weighted hierarchical sum-of-types, max across types,
			// plus a self term: exercises edge features, AggHier and a
			// post-aggregation stage.
			name: "hier-sum-max",
			setup: func(b *gir.Builder) gir.UDF {
				b.VFeature("h", dim)
				b.EFeature("w", 1)
				return func(v *gir.Vertex) *gir.Value {
					return v.Nbr("h").Mul(v.Edge("w")).
						AggHier(gir.AggSum, gir.AggMax).
						Add(v.Self("h"))
				}
			},
		},
		{
			// Max within each type folded by sum, broadcast against a flat
			// mean: mixes AggHier and plain aggregation in one kernel.
			name: "hier-max-sum-plus-mean",
			setup: func(b *gir.Builder) gir.UDF {
				b.VFeature("h", dim)
				b.VFeature("s", 1)
				return func(v *gir.Vertex) *gir.Value {
					hier := v.Nbr("s").AggHier(gir.AggMax, gir.AggSum)
					return v.Nbr("h").AggMean().Add(hier)
				}
			},
		},
		{
			// GAT-style edge softmax feeding a hierarchical sum: two
			// dependent aggregations over the same neighbourhood.
			name: "gat-softmax-hier",
			setup: func(b *gir.Builder) gir.UDF {
				b.VFeature("eu", 1)
				b.VFeature("ev", 1)
				b.VFeature("h", dim)
				return func(v *gir.Vertex) *gir.Value {
					e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
					a := e.Div(e.AggSum())
					return a.Mul(v.Nbr("h")).AggHier(gir.AggSum, gir.AggSum)
				}
			},
		},
	}
}

// refOutput traces the program a second time and evaluates it with the
// definitional interpreter — no optimizer, no fusion, no scheduler.
func refOutput(t *testing.T, p equivProgram, g *graph.Graph, bind *Bindings) *tensor.Tensor {
	t.Helper()
	b := gir.NewBuilder()
	udf := p.setup(b)
	dag, err := b.Build(udf)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	vals, err := refinterp.Eval(dag, g, &refinterp.Bindings{
		VFeat: bind.VFeat, EFeat: bind.EFeat,
	})
	if err != nil {
		t.Fatalf("%s: reference: %v", p.name, err)
	}
	return vals[dag.Outputs[0]]
}

func bitIdentical(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

func TestSchedulerEquivalenceOnSkewedHeteroGraphs(t *testing.T) {
	oldProcs := sched.MaxProcs
	sched.MaxProcs = 8
	t.Cleanup(func() { sched.MaxProcs = oldProcs })

	const dim = 8
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed*131 + 7))
		var g *graph.Graph
		if seed%2 == 0 {
			g = graph.ZipfDegree(rng, 3000, 8, 1.0)
		} else {
			g = graph.PowerLaw(rng, 3000, 8)
		}
		graph.RandomEdgeTypes(rng, g, 2+int(seed%2))
		if err := g.SortEdgesByType(); err != nil {
			t.Fatal(err)
		}
		g = g.SortByDegree()

		// The property is only interesting if the parallel path really
		// runs and type boundaries really fall inside chunks.
		ranges := Partition(&g.In, sched.MaxProcs)
		if len(ranges) < 2 {
			t.Fatalf("seed %d: graph too small to exercise the parallel path (%d chunks)", seed, len(ranges))
		}
		if !hasMidChunkTypeBoundary(g, ranges) {
			t.Fatalf("seed %d: no type boundary lands mid-chunk; property test is vacuous", seed)
		}

		bind := func() *Bindings {
			return &Bindings{
				VFeat: map[string]*tensor.Tensor{
					"h":  tensor.Randn(rand.New(rand.NewSource(seed)), 0.5, g.N, dim),
					"s":  tensor.Randn(rand.New(rand.NewSource(seed+1)), 0.5, g.N, 1),
					"eu": tensor.Randn(rand.New(rand.NewSource(seed+2)), 0.5, g.N, 1),
					"ev": tensor.Randn(rand.New(rand.NewSource(seed+3)), 0.5, g.N, 1),
				},
				EFeat: map[string]*tensor.Tensor{
					"w": tensor.Randn(rand.New(rand.NewSource(seed+4)), 0.5, g.M, 1),
				},
			}
		}

		for _, p := range equivPrograms(dim) {
			plan, _ := planFor(t, p.setup)

			// The kernels must actually take the parallel branch.
			for _, u := range plan.Units {
				mat := plan.Materialized(nil)
				k, err := Compile(u, mat[u], nil)
				if err != nil {
					t.Fatal(err)
				}
				if work := k.cpuWork(&g.In); work < serialCPUThreshold {
					t.Fatalf("seed %d %s: cpuWork %.0f below serial threshold %d — enlarge the graph",
						seed, p.name, work, serialCPUThreshold)
				}
			}

			eb := runSeastarUnits(t, plan, g, DefaultConfig(), bind())

			sched.MaxProcs = 1
			serial := runSeastarUnits(t, plan, g, DefaultConfig(), bind())
			sched.MaxProcs = 8

			if !bitIdentical(eb, serial) {
				t.Fatalf("seed %d %s: parallel and serial execution disagree (max diff %g)",
					seed, p.name, tensor.MaxAbsDiff(eb, serial))
			}
			ref := refOutput(t, p, g, bind())
			if !tensor.AllClose(eb, ref, 1e-3) {
				t.Fatalf("seed %d %s: scheduler output diverges from reference interpreter by %g",
					seed, p.name, tensor.MaxAbsDiff(eb, ref))
			}
		}
	}
}

// hasMidChunkTypeBoundary reports whether some row with at least two
// distinct edge types sits inside one of the chunks — i.e. a
// hierarchical-aggregation fold boundary that a chunk-parallel scheduler
// must handle without cross-chunk state.
func hasMidChunkTypeBoundary(g *graph.Graph, ranges []sched.Range) bool {
	multiType := func(r int) bool {
		_, eids := g.In.Row(r)
		for i := 1; i < len(eids); i++ {
			if g.EdgeTypes[eids[i]] != g.EdgeTypes[eids[i-1]] {
				return true
			}
		}
		return false
	}
	for _, rr := range ranges {
		for r := rr.Lo; r < rr.Hi; r++ {
			if multiType(r) {
				return true
			}
		}
	}
	return false
}
