package shard

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/part"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// syncDeployment is two in-process workers and their coordinator over a
// 20 k-vertex Zipf graph, synced once.
func syncDeployment(tb testing.TB) (*Coordinator, *graph.Graph, serve.ModelSpec) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	g := graph.ZipfDegree(rng, 20000, 8, 1.0)
	spec := testSpec("gcn")
	c, _ := deploy(tb, g, tensor.Randn(rng, 1, g.N, 16), spec, 2, "greedy")
	if _, err := c.Infer(context.Background(), []int32{0}); err != nil {
		tb.Fatal(err)
	}
	return c, g, spec
}

// resync forces the whole exchange again and answers one request.
func resync(tb testing.TB, c *Coordinator) {
	c.SetWorker(0, c.url(0))
	if _, err := c.Infer(context.Background(), []int32{0}); err != nil {
		tb.Fatal(err)
	}
}

// TestShardSyncAllocBudget pins what a resync allocates, coordinator and
// both workers together, below the raw payload it exchanges plus one
// stage's plan outputs ([Owned, hidden] on each worker, so one row per
// vertex across the two): stage storage comes back from the workers'
// pools, every block is read once into a buffer of its size, and nothing
// else may scale with the graph.
func TestShardSyncAllocBudget(t *testing.T) {
	c, g, spec := syncDeployment(t)
	var payload uint64
	owner, err := part.Owners(g, 2, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	for _, flows := range part.Flows(g, owner, 2) {
		for _, rows := range flows {
			for _, width := range c.widths[:len(c.widths)-1] {
				payload += uint64(4 * rows * width)
			}
		}
	}
	stage := uint64(4 * g.N * spec.Hidden)
	resync(t, c) // the first run after a cold one may still fill the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resync(t, c)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("resync allocated %d B; payload %d B, one stage %d B", alloc, payload, stage)
	if alloc > payload+stage {
		t.Fatalf("a resync allocated %d B, over the payload (%d B) plus one stage's tensors (%d B)", alloc, payload, stage)
	}
}

// BenchmarkShardSync is one forced resync of TestShardSyncAllocBudget's
// deployment: every round of the exchange plus the answer that waited
// for it.
func BenchmarkShardSync(b *testing.B) {
	c, _, _ := syncDeployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resync(b, c)
	}
}
