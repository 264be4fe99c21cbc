package serve_test

import (
	"context"
	"math/rand"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// zipfSnapshot is the serving benchmark's graph shape: n vertices, Zipf
// in-degrees averaging 8, 64 random features per vertex.
func zipfSnapshot(tb testing.TB, n int) *serve.Snapshot {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.ZipfDegree(rng, n, 8, 1.0)
	snap, err := serve.NewSnapshot(g, tensor.Randn(rng, 1, g.N, 64))
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// randomRequests draws count requests of perReq uniform random vertices.
func randomRequests(n, count, perReq int) [][]int32 {
	rng := rand.New(rand.NewSource(2))
	reqs := make([][]int32, count)
	for i := range reqs {
		reqs[i] = make([]int32, perReq)
		for j := range reqs[i] {
			reqs[i][j] = int32(rng.Intn(n))
		}
	}
	return reqs
}

// mixedDeltas draws count deltas in the shape of serve-embed-mixed's
// writer against snap's original edge list: 4 edge adds, 2 removes of
// distinct original edges, 3 feature rows.
func mixedDeltas(snap *serve.Snapshot, count int) []*serve.Delta {
	rng := rand.New(rand.NewSource(3))
	g := snap.Graph()
	removed := map[graph.Edge]bool{}
	deltas := make([]*serve.Delta, count)
	for i := range deltas {
		d := &serve.Delta{}
		for len(d.RemoveEdges) < 2 {
			j := rng.Intn(g.M)
			if e := (graph.Edge{Src: g.Srcs[j], Dst: g.Dsts[j]}); !removed[e] {
				removed[e] = true
				d.RemoveEdges = append(d.RemoveEdges, e)
			}
		}
		for len(d.AddEdges) < 4 {
			if e := (graph.Edge{Src: int32(rng.Intn(g.N)), Dst: int32(rng.Intn(g.N))}); !removed[e] {
				d.AddEdges = append(d.AddEdges, e)
			}
		}
		for j := 0; j < 3; j++ {
			d.Features = append(d.Features, serve.FeatureUpdate{
				Node: int32(rng.Intn(g.N)), Row: tensor.Randn(rng, 1, 1, snap.FeatDim()).Data(),
			})
		}
		deltas[i] = d
	}
	return deltas
}

// BenchmarkDelta times one delta at a time on an otherwise idle
// EmbedCache engine, in the shape of benchmark/'s serve-embed-mixed
// writer (100 k-vertex Zipf graph, GCN hidden 64): graph + feature apply,
// incremental recompute, frontier size and — the number this exists for —
// bytes allocated per delta, which must stay far below one [N, hidden]
// tensor (25.6 MB). `make bench-serve` prints it; scripts/ci.sh runs it
// once; TestDeltaAllocBudget is the gate.
func BenchmarkDelta(b *testing.B) {
	snap := zipfSnapshot(b, 100000)
	eng, err := serve.New(serve.Config{
		Spec:       serve.ModelSpec{Arch: "gcn", Hidden: 64, Classes: 8, Seed: 1},
		EmbedCache: true,
	}, snap)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Infer(context.Background(), []int32{0}); err != nil { // fills the embed cache
		b.Fatal(err)
	}
	deltas := mixedDeltas(snap, b.N+1)
	var applyNs, recomputeNs, frontier int64
	apply := func(d *serve.Delta) {
		d.ParentGen = eng.Generation()
		st, err := eng.ApplyDelta(d)
		if err != nil {
			b.Fatal(err)
		}
		if st.Recompute != "incremental" {
			b.Fatalf("delta recomputed %q, want incremental", st.Recompute)
		}
		applyNs, recomputeNs, frontier = applyNs+st.ApplyNs, recomputeNs+st.RecomputeNs, frontier+int64(st.Frontier)
	}
	apply(deltas[b.N]) // chunk the root's CSR and page its features, once
	applyNs, recomputeNs, frontier = 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(deltas[i])
	}
	b.ReportMetric(float64(applyNs)/1e6/float64(b.N), "apply_ms/op")
	b.ReportMetric(float64(recomputeNs)/1e6/float64(b.N), "recompute_ms/op")
	b.ReportMetric(float64(frontier)/float64(b.N), "frontier/op")
}

// BenchmarkServeRequest times one request at a time against an idle
// engine, in the shapes of benchmark/'s serve-sampled and
// serve-embed-mixed workloads (100 k-vertex Zipf graph, width 64): what a
// request costs when it waits for nobody, and how many of its tensor
// draws the pool could not serve (misses/op). `make bench-serve` prints
// it; scripts/ci.sh runs it once so it cannot rot. The gate is
// benchmark/.
func BenchmarkServeRequest(b *testing.B) {
	for _, bc := range []struct {
		name   string
		cfg    serve.Config
		perReq int
	}{
		{"sampled", serve.Config{
			Spec:   serve.ModelSpec{Arch: "gat", Hidden: 64, Classes: 8, Seed: 1},
			FanOut: []int{10, 5}, SampleSeed: 1,
		}, 16},
		{"embed", serve.Config{
			Spec:       serve.ModelSpec{Arch: "gcn", Hidden: 64, Classes: 8, Seed: 1},
			EmbedCache: true,
		}, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			snap := zipfSnapshot(b, 100000)
			eng, err := serve.New(bc.cfg, snap)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			reqs := randomRequests(snap.NumVertices(), 256, bc.perReq)
			infer := func(i int) {
				if _, err := eng.Infer(context.Background(), reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ { // compile the plan, fill the pool and the caches
				infer(i)
			}
			misses := eng.PoolStats().Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				infer(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.PoolStats().Misses-misses)/float64(b.N), "misses/op")
		})
	}
}
