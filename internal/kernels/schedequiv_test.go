package kernels

import (
	"fmt"
	"math"
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
// in the middle of scheduler chunks. One more input leaves its types
// unsorted and adds a hub whose type runs are shorter than, equal to,
// just over and several times the VM's edge block, so hierarchical folds
// land inside blocks and runs straddle them; on every input the
// VM must match refinterp on the same DAG bit for bit.

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
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

func TestSchedulerEquivalenceOnSkewedHeteroGraphs(t *testing.T) {
	oldProcs := sched.MaxProcs
	sched.MaxProcs = 8
	t.Cleanup(func() { sched.MaxProcs = oldProcs })

	prevSIMD := tensor.SetSIMD(true) // the loop below sets each mode in turn
	t.Cleanup(func() { tensor.SetSIMD(prevSIMD) })

	const dim = 8
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed*131 + 7))
		var g *graph.Graph
		switch {
		case seed == 4:
			g = unsortedHubGraph(t, rng)
		case seed%2 == 0:
			g = graph.ZipfDegree(rng, 3000, 8, 1.0)
		default:
			g = graph.PowerLaw(rng, 3000, 8)
		}
		if seed < 4 {
			graph.RandomEdgeTypes(rng, g, 2+int(seed%2))
			if err := g.SortEdgesByType(); err != nil {
				t.Fatal(err)
			}
			g = g.SortByDegree()
		}

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

		batchedHier := false
		for _, p := range equivPrograms(dim) {
			plan, dag := planFor(t, p.setup)

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
				for _, tm := range k.spec.terms {
					batchedHier = batchedHier || (tm.hier && tm.batch)
				}
			}

			// VM ≡ refinterp on the DAG the plan was built from, bit for
			// bit, at 1 and 4 workers in both SIMD modes.
			b := bind()
			vals, err := refinterp.Eval(dag, g, &refinterp.Bindings{VFeat: b.VFeat, EFeat: b.EFeat})
			if err != nil {
				t.Fatalf("seed %d %s: refinterp: %v", seed, p.name, err)
			}
			want := vals[dag.Outputs[0]]
			for _, simd := range []bool{true, false} {
				tensor.SetSIMD(simd)
				for _, procs := range []int{1, 4} {
					sched.MaxProcs = procs
					got := runSeastarUnits(t, plan, g, bind())
					if !bitIdentical(got, want) {
						t.Fatalf("seed %d %s (simd=%v procs=%d): VM and refinterp disagree (max diff %g)",
							seed, p.name, simd, procs, tensor.MaxAbsDiff(got, want))
					}
				}
			}
			tensor.SetSIMD(prevSIMD)
			sched.MaxProcs = 8

			eb := runSeastarUnits(t, plan, g, bind())

			sched.MaxProcs = 1
			serial := runSeastarUnits(t, plan, g, bind())
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
		if !batchedHier {
			t.Fatalf("seed %d: no hierarchical term batches through GatherMulAdd", seed)
		}
	}
}

// hubRuns are the lengths of the hub's edge-type runs in unsortedHubGraph:
// one edge, one short of a VM block, exactly a block, one over, and a run
// spanning several blocks.
var hubRuns = []int{1, specBlock - 1, specBlock, specBlock + 1, 2*specBlock + 88}

// unsortedHubGraph is a Zipf graph with three random edge types left in
// edge-id order (SortEdgesByType is never called, so most rows change
// type every edge or two), plus one hub vertex whose in-row is the type
// runs hubRuns in turn.
func unsortedHubGraph(t *testing.T, rng *rand.Rand) *graph.Graph {
	t.Helper()
	const numTypes = 3
	base := graph.ZipfDegree(rng, 3000, 8, 1.0)
	hub := int32(base.N)
	srcs := append([]int32(nil), base.Srcs...)
	dsts := append([]int32(nil), base.Dsts...)
	types := make([]int32, base.M)
	for i := range types {
		types[i] = int32(rng.Intn(numTypes))
	}
	for ri, n := range hubRuns {
		for i := 0; i < n; i++ {
			srcs = append(srcs, int32(rng.Intn(base.N)))
			dsts = append(dsts, hub)
			types = append(types, int32(ri%numTypes))
		}
	}
	g, err := graph.FromTypedEdges(base.N+1, srcs, dsts, types, numTypes)
	if err != nil {
		t.Fatal(err)
	}
	g = g.SortByDegree()

	// The hub's in-row must hold exactly the planned runs.
	for r, id := range g.In.RowIDs {
		if id != hub {
			continue
		}
		types := g.EdgeTypes[g.In.Offsets[r]:g.In.Offsets[r+1]] // a row's slots are its edge ids
		var runs []int
		for i := range types {
			if i == 0 || types[i] != types[i-1] {
				runs = append(runs, 0)
			}
			runs[len(runs)-1]++
		}
		if fmt.Sprint(runs) != fmt.Sprint(hubRuns) {
			t.Fatalf("hub type runs %v, want %v", runs, hubRuns)
		}
	}
	return g
}

// hasMidChunkTypeBoundary reports whether some row with at least two
// distinct edge types sits inside one of the chunks — i.e. a
// hierarchical-aggregation fold boundary that a chunk-parallel scheduler
// must handle without cross-chunk state.
func hasMidChunkTypeBoundary(g *graph.Graph, ranges []sched.Range) bool {
	multiType := func(r int) bool {
		types := g.EdgeTypes[g.In.Offsets[r]:g.In.Offsets[r+1]]
		for i := 1; i < len(types); i++ {
			if types[i] != types[i-1] {
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
