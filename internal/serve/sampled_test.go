package serve_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/sampling"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// sampledReference answers one sampled request the way the engine did
// when every request built a sampler of its own: seed it from (snapshot,
// config seed, nodes), draw that sampler's first sample (SampleAs, whose
// contract the sampling tests pin), degree-sort the subgraph, gather
// features, run the all-rows forward on ordinary tensors. The engine now
// shares one sampler per published snapshot, runs each layer on its block
// of the sample and draws its tensors from the pool; answers must not
// have moved by a bit.
func sampledReference(t *testing.T, cfg serve.Config, snap *serve.Snapshot, nodes []int32) *tensor.Tensor {
	t.Helper()
	b := requestBatch(t, cfg, snap, nodes)
	m, err := serve.BuildModel(cfg.Spec, snap.FeatDim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sub := b.Sub.SortByDegree()
	env := &serve.ForwardEnv{G: sub, Feat: b.GatherFeatures(snap.Feat)}
	serve.NormsFor(cfg.Spec.Arch, nil, sub, env)
	logits, err := m.Forward(env)
	if err != nil {
		t.Fatal(err)
	}
	// A node's row is its compact id in the batch: its position among the
	// request's distinct nodes, i.e. its own position when none repeats.
	rows := make([]int32, len(nodes))
	for i, v := range nodes {
		rows[i] = int32(slices.Index(b.Vertices, v))
	}
	return tensor.GatherRows(logits, rows)
}

// requestBatch is the sample the engine draws for a request: seeded from
// (snapshot, config seed, nodes), the first draw of a sampler seeded so.
func requestBatch(t *testing.T, cfg serve.Config, snap *serve.Snapshot, nodes []int32) *sampling.Batch {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], snap.Fingerprint()^uint64(cfg.SampleSeed))
	h.Write(buf[:])
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	s, err := sampling.NewSampler(snap.G, cfg.FanOut, int64(h.Sum64()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SampleAs(nodes, int64(h.Sum64()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// distinctNodes draws k different vertices of [0, n).
func distinctNodes(rng *rand.Rand, n, k int) []int32 {
	nodes := make([]int32, k)
	for i, p := range rng.Perm(n)[:k] {
		nodes[i] = int32(p)
	}
	return nodes
}

// TestSampledMatchesPerRequestSampler pins sampled answers, for every
// architecture that can be sampled, to the per-request-sampler reference.
func TestSampledMatchesPerRequestSampler(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	for _, arch := range []string{"gcn", "gat", "appnp"} {
		t.Run(arch, func(t *testing.T) {
			cfg := serve.Config{
				Spec:   serve.ModelSpec{Arch: arch, Hidden: 8, Classes: 5, K: 3, Seed: 3},
				FanOut: []int{4, 3}, SampleSeed: 11,
			}
			eng, err := serve.New(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 20; i++ {
				nodes := distinctNodes(rng, snap.NumVertices(), 1+rng.Intn(6))
				res, err := eng.Infer(context.Background(), nodes)
				if err != nil {
					t.Fatal(err)
				}
				if !sameTensorBits(res.Logits, sampledReference(t, cfg, snap, nodes)) {
					t.Fatalf("request %d %v: answer differs from a per-request sampler's", i, nodes)
				}
			}
		})
	}
}

// TestSampledBlocksBitwise: a sampled forward runs each layer on its
// block of the sample, and its answers equal the all-rows forward over the
// whole sample bit for bit, in both SIMD modes — over random graphs and
// fan-outs, requests repeating a node, frontiers that empty before the
// last hop (the sparse graphs), and more layers than hops (APPNP, K = 3).
func TestSampledBlocksBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type graphCase struct {
		snap *serve.Snapshot
		fan  []int
	}
	var cases []graphCase
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(150)
		var g *graph.Graph
		switch trial % 3 {
		case 0: // fewer edges than vertices: many frontiers empty early
			g = graph.GNM(rng, n, n/2)
		case 1:
			g = graph.PowerLaw(rng, n, 1+rng.Intn(4))
		default:
			g = graph.ZipfDegree(rng, n, 2+rng.Intn(5), 1.0)
		}
		snap, err := serve.NewSnapshot(g.SortByDegree(), tensor.Randn(rng, 1, n, 6))
		if err != nil {
			t.Fatal(err)
		}
		fan := make([]int, 1+rng.Intn(2))
		for i := range fan {
			fan[i] = 1 + rng.Intn(4)
		}
		cases = append(cases, graphCase{snap, fan})
	}
	emptied, deeper := 0, 0
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		for ci, gc := range cases {
			for _, arch := range []string{"gcn", "gat", "appnp"} {
				cfg := serve.Config{
					Spec:   serve.ModelSpec{Arch: arch, Hidden: 5, Classes: 3, K: 3, Seed: 4},
					FanOut: gc.fan, SampleSeed: int64(ci),
				}
				if len(cfg.Spec.Declare(1, 1).Stages) > len(gc.fan) {
					deeper++
				}
				eng, err := serve.New(cfg, gc.snap)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 8; i++ {
					nodes := make([]int32, 1+rng.Intn(4))
					for j := range nodes {
						nodes[j] = int32(rng.Intn(gc.snap.NumVertices()))
					}
					if i%2 == 0 {
						nodes = append(nodes, nodes[0])
					}
					hv := requestBatch(t, cfg, gc.snap, nodes).HopVertices
					for k := 1; k < len(hv)-1; k++ {
						if hv[k] == hv[k-1] {
							emptied++
							break
						}
					}
					res, err := eng.Infer(context.Background(), nodes)
					if err != nil {
						t.Fatal(err)
					}
					if !sameTensorBits(res.Logits, sampledReference(t, cfg, gc.snap, nodes)) {
						t.Fatalf("simd=%v graph %d %s fan-out %v, request %v: answer differs from the all-rows forward",
							simd, ci, arch, gc.fan, nodes)
					}
				}
				eng.Close()
			}
		}
		tensor.SetSIMD(prev)
	}
	if emptied == 0 || deeper == 0 {
		t.Fatalf("%d requests emptied a frontier early, %d models were deeper than their fan-out: the grid misses a case", emptied, deeper)
	}
}

// TestSampledKernelRowsAreBlockRows: in one sampled request every fused
// unit launches once per layer, and its kern "rows" counter sums to the
// destination rows of the layers' blocks — the seeds for the last layer,
// not the whole sample for every layer.
func TestSampledKernelRowsAreBlockRows(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	nodes := []int32{3, 17, 3, 40}
	for _, arch := range []string{"gcn", "gat", "appnp"} {
		t.Run(arch, func(t *testing.T) {
			cfg := serve.Config{
				Spec:   serve.ModelSpec{Arch: arch, Hidden: 8, Classes: 5, K: 3, Seed: 3},
				FanOut: []int{4, 3}, SampleSeed: 11,
			}
			eng, err := serve.New(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Infer(context.Background(), nodes); err != nil { // compile outside the trace
				t.Fatal(err)
			}
			b := requestBatch(t, cfg, snap, nodes)
			stages := len(cfg.Spec.Declare(1, 1).Stages)
			var want int64
			for l := 0; l < stages; l++ {
				blk, err := b.Block(stages - 1 - l)
				if err != nil {
					t.Fatal(err)
				}
				want += int64(blk.In.NumRows())
			}
			if want >= int64(stages*b.Sub.N) {
				t.Fatalf("blocks of %d rows in all over a %d-vertex sample cut nothing", want, b.Sub.N)
			}
			obs.Reset()
			obs.Enable()
			_, err = eng.Infer(context.Background(), nodes)
			obs.Disable()
			defer obs.Reset()
			if err != nil {
				t.Fatal(err)
			}
			units := 0
			for _, e := range obs.Snapshot() {
				if e.Cat != "kern" {
					continue
				}
				units++
				if e.Count != int64(stages) || e.Counters["rows"] != want {
					t.Errorf("%s: %d launches over %d rows, want %d launches over the blocks' %d destination rows",
						e.Name, e.Count, e.Counters["rows"], stages, want)
				}
			}
			if units == 0 {
				t.Fatal("the request launched no traced kernel")
			}
		})
	}
}

// TestSampledRepeatedNode: a node asked for twice is answered twice with
// its own row. (Rows used to be read as 0..len(nodes)-1 although the
// sampler numbers distinct seeds only, so [a,a,b] answered b's logits for
// the second a and a sampled neighbour's for b.)
func TestSampledRepeatedNode(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	cfg := serve.Config{Spec: gcnSpec(7), FanOut: []int{3, 3}}
	eng, err := serve.New(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, nodes := range [][]int32{{4, 4, 9}, {4, 9, 4, 25, 9}, {7, 7}} {
		res, err := eng.Infer(context.Background(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range nodes {
			first := slices.Index(nodes, v)
			if !slices.Equal(res.Logits.Row(i), res.Logits.Row(first)) {
				t.Fatalf("%v: row %d and row %d are both node %d but differ", nodes, first, i, v)
			}
		}
		if !sameTensorBits(res.Logits, sampledReference(t, cfg, snap, nodes)) {
			t.Fatalf("%v: rows are not the requested nodes' own", nodes)
		}
	}
}

// TestSampledSwapUsesNewIndex: the vertex→row index belongs to the
// published snapshot. After SwapGraph to a graph whose degree sort put
// the vertices in different rows, requests must sample through the new
// graph's index, not one left over from the old.
func TestSampledSwapUsesNewIndex(t *testing.T) {
	snapA := snapFor(t, "cora", 0.1, 1)
	snapB := snapFor(t, "cora", 0.1, 2)
	if slices.Equal(snapA.G.In.RowIDs, snapB.G.In.RowIDs) {
		t.Fatal("test snapshots share a row permutation")
	}
	cfg := serve.Config{Spec: gcnSpec(7), FanOut: []int{4, 4}}
	eng, err := serve.New(cfg, snapA)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(8))
	n := min(snapA.NumVertices(), snapB.NumVertices())
	for _, snap := range []*serve.Snapshot{snapA, snapB, snapA} {
		if err := eng.SwapGraph(snap); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			nodes := distinctNodes(rng, n, 4)
			res, err := eng.Infer(context.Background(), nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTensorBits(res.Logits, sampledReference(t, cfg, snap, nodes)) {
				t.Fatalf("after swap: %v answered from another snapshot's index", nodes)
			}
		}
	}
}

// TestSampledRequestBytesIndependentOfN: a sampled request touches its
// fan-out's worth of vertices, so what it allocates must not depend on
// the size of the graph around them. (Each request once rebuilt a 4N-byte
// vertex→row index.)
func TestSampledRequestBytesIndependentOfN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200 k-vertex graph")
	}
	bytesPerRequest := func(n int) float64 {
		snap := zipfSnapshot(t, n)
		eng, err := serve.New(serve.Config{
			Spec:   serve.ModelSpec{Arch: "gat", Hidden: 64, Classes: 8, Seed: 1},
			FanOut: []int{10, 5},
		}, snap)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		reqs := randomRequests(n, 232, 16)
		infer := func(nodes []int32) {
			if _, err := eng.Infer(context.Background(), nodes); err != nil {
				t.Fatal(err)
			}
		}
		for _, nodes := range reqs[:32] {
			infer(nodes)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, nodes := range reqs[32:] {
			infer(nodes)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs)-32)
	}
	small, large := bytesPerRequest(10000), bytesPerRequest(200000)
	t.Logf("bytes per sampled request: %.0f at N=10k, %.0f at N=200k", small, large)
	if large > 1.5*small {
		t.Fatalf("a sampled request allocates %.0f bytes at N=200k against %.0f at N=10k: something per-request is O(N)", large, small)
	}
}
