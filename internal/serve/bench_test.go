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

// BenchmarkServeRequest times one request at a time against an idle
// engine, in the shapes of benchmark/'s serve-sampled and
// serve-embed-mixed workloads (100 k-vertex Zipf graph, width 64): what a
// request costs when it waits for nobody. `make bench-serve` prints it;
// scripts/ci.sh runs it once so it cannot rot. The gate is benchmark/.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				infer(i)
			}
		})
	}
}
