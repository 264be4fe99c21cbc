package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/nn"
	"seastar/internal/tensor"
)

func TestSamplerValidation(t *testing.T) {
	g := graph.Figure7()
	if _, err := NewSampler(g, nil, 1); err == nil {
		t.Fatal("empty fan-out accepted")
	}
	if _, err := NewSampler(g, []int{0}, 1); err == nil {
		t.Fatal("zero fan-out accepted")
	}
	s, err := NewSampler(g, []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := s.Sample([]int32{99}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := s.Batches(0); err == nil {
		t.Fatal("zero batch size accepted")
	}
}

func TestSampleStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.PowerLaw(rng, 500, 5)
	s, err := NewSampler(g, []int{3, 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{10, 20, 30}
	b, err := s.Sample(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// The subgraph is in-only, its in-CSR born hop-major: each hop's rows
	// follow the hops before it, in that hop's degree order, with every
	// row's slots in edge-id order.
	if b.Sub.Out.Offsets != nil || !b.Sub.In.Sorted {
		t.Fatal("sampled subgraph carries an out-CSR or an unsorted in-CSR")
	}
	if len(b.HopVertices) != 3 || len(b.HopEdges) != 3 || b.HopVertices[0] != 3 || b.HopEdges[0] != 0 ||
		b.HopVertices[2] != b.Sub.N || b.HopEdges[2] != b.Sub.M {
		t.Fatalf("hop boundaries: vertices %v, edges %v for %d vertices, %d edges", b.HopVertices, b.HopEdges, b.Sub.N, b.Sub.M)
	}
	deg := b.Sub.InDegrees()
	lo := 0
	for k, hi := range b.HopVertices {
		for i, v := range graph.DegreeOrder(deg[lo:hi]) {
			if b.Sub.In.RowIDs[lo+i] != int32(lo)+v {
				t.Fatalf("hop %d: rows %v, want vertices [%d,%d) in degree order", k, b.Sub.In.RowIDs[lo:hi], lo, hi)
			}
		}
		lo = hi
	}
	if err := b.Sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sorting the rows by degree alone keeps every row's in-edges.
	sorted := b.Sub.SortByDegree()
	if !reflect.DeepEqual(sorted.InDegrees(), deg) || sorted.Out.Offsets != nil || sorted.Validate() != nil {
		t.Fatal("SortByDegree of the sample lost its in-edges or grew an out-CSR")
	}
	if b.SeedCount != 3 {
		t.Fatalf("seed count %d", b.SeedCount)
	}
	// A repeated seed is one seed: the rows after SeedCount are sampled
	// neighbours.
	if r, err := s.Sample([]int32{10, 10, 20}); err != nil || r.SeedCount != 2 || r.Vertices[0] != 10 || r.Vertices[1] != 20 {
		t.Fatalf("seeds [10 10 20]: count %d, vertices %v, err %v", r.SeedCount, r.Vertices, err)
	}
	// Seeds occupy the first compact ids, in order.
	for i, v := range seeds {
		if b.Vertices[i] != v {
			t.Fatalf("seed %d mapped to %d", v, b.Vertices[i])
		}
	}
	// Every batch edge exists in the base graph.
	baseEdges := map[[2]int32]bool{}
	for e := 0; e < g.M; e++ {
		baseEdges[[2]int32{g.Srcs[e], g.Dsts[e]}] = true
	}
	for e := 0; e < b.Sub.M; e++ {
		u := b.Vertices[b.Sub.Srcs[e]]
		v := b.Vertices[b.Sub.Dsts[e]]
		if !baseEdges[[2]int32{u, v}] {
			t.Fatalf("sampled edge %d→%d not in base graph", u, v)
		}
	}
	// Fan-out bound at the seed layer.
	inDeg := b.Sub.InDegrees()
	for i := 0; i < b.SeedCount; i++ {
		if inDeg[i] > 3 {
			t.Fatalf("seed %d has %d sampled in-edges (fan-out 3)", i, inDeg[i])
		}
	}
	// The bound holds for a repeated seed too: the hub listed three times
	// is expanded once, not three times.
	baseDeg := g.InDegrees()
	hub := int32(0)
	for v, d := range baseDeg {
		if d > baseDeg[hub] {
			hub = int32(v)
		}
	}
	r, err := s.Sample([]int32{hub, hub, hub})
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Sub.InDegrees()[0]; d != 3 {
		t.Fatalf("seeds [%d %d %d] (in-degree %d), fan-out 3: the seed has %d sampled in-edges, want 3",
			hub, hub, hub, baseDeg[hub], d)
	}
}

// sampleIndices is the draw as it was before scratch.draw: a partial
// Fisher–Yates shuffle over a materialized permutation of [0, n).
func sampleIndices(rng *rand.Rand, n, fan int) []int32 {
	if n == 0 {
		return nil
	}
	if fan >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := 0; i < fan; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:fan]
}

// TestDrawIndicesMatchesPermutation: the sparse draw picks the indices the
// materialized permutation did, and leaves the RNG where it left it, so no
// recorded loss curve moves. One scratch serves the whole grid, as one
// serves a whole SampleRNG call.
func TestDrawIndicesMatchesPermutation(t *testing.T) {
	sc := &scratch{}
	for _, n := range []int{0, 1, 2, 3, 5, 8, 17, 64, 100, 1000} {
		for _, fan := range []int{1, 2, 3, 5, 10, 25} {
			for seed := int64(0); seed < 4; seed++ {
				a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := sampleIndices(a, n, fan)
				got := sc.draw(b, n, fan)
				if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
					t.Fatalf("n=%d fan=%d seed=%d: draw %v, permutation %v", n, fan, seed, got, want)
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("n=%d fan=%d seed=%d: the RNG streams diverge after the draw", n, fan, seed)
				}
			}
		}
	}
}

// TestSampleSeededConcurrent: concurrent callers each take a scratch of
// their own, scratches are reused rather than made per call, and every
// batch equals the serial one.
func TestSampleSeededConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ZipfDegree(rng, 2000, 6, 1.0)
	s, err := NewSampler(g, []int{5, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanEpoch(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Batch, len(plan))
	for i, seeds := range plan {
		if want[i], err = s.SampleSeeded(seeds, DeriveSeed(4, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := w; i < len(plan); i += workers {
					b, err := s.SampleSeeded(plan[i], DeriveSeed(4, 0, i))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(b, want[i]) {
						errs <- fmt.Errorf("batch %d drawn concurrently differs from the serial draw", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if k := len(s.free); k < 1 || k > workers {
		t.Fatalf("%d scratches for %d concurrent callers and %d calls", k, workers, 3*len(plan))
	}
	for _, sc := range s.free {
		for v, id := range sc.slot {
			if id != 0 {
				t.Fatalf("an idle scratch still numbers vertex %d", v)
			}
		}
	}
}

// TestSampleAllocsFlat: a call allocates its batch and the batch's graph,
// a fixed number of slices, and nothing per frontier vertex.
func TestSampleAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.ZipfDegree(rng, 5000, 8, 1.0)
	s, err := NewSampler(g, []int{10, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanEpoch(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(seeds []int32) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := s.SampleSeeded(seeds, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(plan[0][:8]), allocs(plan[0])
	if large != small || large > 24 {
		t.Fatalf("SampleSeeded allocates %.0f times for 8 seeds and %.0f for 512: want one constant ≤ 24", small, large)
	}
}

// TestSamplePrefixOfDeeperSample pins what lets a trainer sample only as
// deep as its model: with the same derived seed, the FanOut[:d] sample is
// a prefix of the FanOut sample. It has the same seed count, its vertices
// are the first ones of the deeper block, and its edge list is the first
// edges of the deeper one, in the same order.
func TestSamplePrefixOfDeeperSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	deeper := 0
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(400)
		var g *graph.Graph
		if trial%2 == 0 {
			g = graph.PowerLaw(rng, n, 1+rng.Intn(6))
		} else {
			g = graph.ZipfDegree(rng, n, 1+rng.Intn(8), 1.0).SortByDegree()
		}
		fan := make([]int, 2+rng.Intn(2))
		for i := range fan {
			fan[i] = 1 + rng.Intn(6)
		}
		seeds := make([]int32, 1+rng.Intn(n/2))
		for i := range seeds {
			seeds[i] = int32(rng.Intn(n)) // repeats allowed
		}
		base := rng.Int63()
		deep, err := NewSampler(g, fan, base)
		if err != nil {
			t.Fatal(err)
		}
		seed := DeriveSeed(base, rng.Intn(5), rng.Intn(50))
		want, err := deep.SampleSeeded(seeds, seed)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d < len(fan); d++ {
			shallow, err := NewSampler(g, fan[:d], base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shallow.SampleSeeded(seeds, seed)
			if err != nil {
				t.Fatal(err)
			}
			nv, ne := len(got.Vertices), got.Sub.M
			if got.SeedCount != want.SeedCount || nv > len(want.Vertices) || ne > want.Sub.M ||
				!reflect.DeepEqual(got.Vertices, want.Vertices[:nv]) ||
				!reflect.DeepEqual(got.Sub.Srcs, want.Sub.Srcs[:ne]) ||
				!reflect.DeepEqual(got.Sub.Dsts, want.Sub.Dsts[:ne]) {
				t.Fatalf("trial %d, fan-out %v: the %d-hop sample (%d seeds, %d vertices, %d edges) is not a prefix of the %d-hop one (%d seeds, %d vertices, %d edges)",
					trial, fan, d, got.SeedCount, nv, ne, len(fan), want.SeedCount, len(want.Vertices), want.Sub.M)
			}
			if ne < want.Sub.M {
				deeper++
			}
		}
	}
	if deeper == 0 {
		t.Fatal("no deeper sample drew an edge the shallower one lacks: the grid tests nothing")
	}
}

// TestSampleIsABlock is the property the mini-batch step's block rests
// on: every sampled subgraph's vertices the sampler expanded are a
// destination prefix (graph.Graph.DstPrefix) holding every edge. The
// expanded vertices are those of the sample one hop shallower (the seeds,
// for one hop), numbered first; every other vertex is of the last hop,
// whose rows come last in the hop-major in-CSR, so an expanded vertex
// without an in-edge still sorts ahead of them.
func TestSampleIsABlock(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hollow := 0 // batches with an expanded vertex no edge enters, ahead of an unexpanded one
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(300)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.GNM(rng, n, rng.Intn(2*n))
		case 1:
			g = graph.PowerLaw(rng, n, 1+rng.Intn(4))
		default:
			g = graph.ZipfDegree(rng, n, 1+rng.Intn(6), 1.0).SortByDegree()
		}
		fan := make([]int, 1+rng.Intn(3))
		for i := range fan {
			fan[i] = 1 + rng.Intn(5)
		}
		base := rng.Int63()
		samplers := make([]*Sampler, len(fan)+1)
		for d := 1; d <= len(fan); d++ {
			var err error
			if samplers[d], err = NewSampler(g, fan[:d], base); err != nil {
				t.Fatal(err)
			}
		}
		for batch := 0; batch < 4; batch++ {
			seeds := make([]int32, 1+rng.Intn(n/2))
			for i := range seeds {
				seeds[i] = int32(rng.Intn(n)) // repeats allowed
			}
			seed := DeriveSeed(base, trial, batch)
			b, err := samplers[len(fan)].SampleSeeded(seeds, seed)
			if err != nil {
				t.Fatal(err)
			}
			expanded := b.SeedCount
			if len(fan) > 1 {
				shallow, err := samplers[len(fan)-1].SampleSeeded(seeds, seed)
				if err != nil {
					t.Fatal(err)
				}
				expanded = len(shallow.Vertices)
			}
			blk, err := b.Sub.DstPrefix(expanded, b.Sub.N)
			if err != nil {
				t.Fatalf("trial %d batch %d, fan-out %v: %d expanded of %d vertices: %v",
					trial, batch, fan, expanded, b.Sub.N, err)
			}
			if err := blk.Validate(); err != nil {
				t.Fatalf("trial %d batch %d: the block is malformed: %v", trial, batch, err)
			}
			if expanded < b.Sub.N && slices.Contains(b.Sub.InDegrees()[:expanded], 0) {
				hollow++
			}
		}
	}
	if hollow == 0 {
		t.Fatal("no batch expanded a vertex without in-edges ahead of an unexpanded one: the tie order is untested")
	}
}

// BenchmarkSample draws one train-mb-sage-shaped batch (512 seeds, fan-out
// 10,5, Zipf degrees) per iteration.
func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ZipfDegree(rng, 50000, 8, 1.0)
	s, err := NewSampler(g, []int{10, 5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := s.PlanEpoch(0, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleSeeded(plan[i%len(plan)], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSampleOnSortedGraph(t *testing.T) {
	// The sampler must handle degree-sorted base graphs (permuted CSR
	// rows) via the row index.
	rng := rand.New(rand.NewSource(2))
	g := graph.PowerLaw(rng, 300, 4).SortByDegree()
	s, err := NewSampler(g, []int{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sample([]int32{5})
	if err != nil {
		t.Fatal(err)
	}
	// All sampled in-neighbours of 5 must be real in-neighbours.
	real := map[int32]bool{}
	for e := 0; e < g.M; e++ {
		if g.Dsts[e] == 5 {
			real[g.Srcs[e]] = true
		}
	}
	for e := 0; e < b.Sub.M; e++ {
		if b.Vertices[b.Sub.Dsts[e]] == 5 && !real[b.Vertices[b.Sub.Srcs[e]]] {
			t.Fatalf("fake neighbour %d", b.Vertices[b.Sub.Srcs[e]])
		}
	}
}

func TestBatchesPartition(t *testing.T) {
	// The chain 0→1→…→9.
	g, err := graph.FromEdges(10, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g, []int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := s.Batches(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 { // 3+3+3+1
		t.Fatalf("batches: %d", len(batches))
	}
	seen := map[int32]bool{}
	for _, b := range batches {
		for _, v := range b {
			if seen[v] {
				t.Fatalf("vertex %d in two batches", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("coverage: %d", len(seen))
	}
}

func TestGatherHelpers(t *testing.T) {
	g := graph.Figure7()
	s, _ := NewSampler(g, []int{2}, 5)
	b, err := s.Sample([]int32{0})
	if err != nil {
		t.Fatal(err)
	}
	base := tensor.FromSlice([]float32{10, 20, 30, 40}, 4, 1)
	feats := b.GatherFeatures(base)
	for i, v := range b.Vertices {
		if feats.At(i, 0) != base.At(int(v), 0) {
			t.Fatalf("feature row %d", i)
		}
	}
}

func TestMiniBatchTrainingWithSeastar(t *testing.T) {
	// End-to-end: sample batches, run a compiled Seastar GCN layer on
	// each batch subgraph, and check the loss drops — Seastar as the
	// training engine of a sampling-based system.
	rng := rand.New(rand.NewSource(3))
	g := graph.PowerLaw(rng, 400, 5)
	feat := tensor.Randn(rng, 1, 400, 8)
	labels := make([]int, 400)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}

	b := gir.NewBuilder()
	b.VFeature("h", 8)
	W := b.Param("W", 8, 3)
	dag, err := b.Build(func(v *gir.Vertex) *gir.Value {
		self := v.Self("h").MatMul(W)
		return v.Nbr("h").MatMul(W).AggSum().Add(self)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := exec.Compile(dag)
	if err != nil {
		t.Fatal(err)
	}

	dev := device.New(device.V100)
	e := nn.NewEngine(dev)
	w := e.Param(tensor.XavierUniform(rng, 8, 3), "W")
	opt := nn.NewAdam([]*nn.Variable{w}, 0.02)
	sampler, err := NewSampler(g, []int{4}, 11)
	if err != nil {
		t.Fatal(err)
	}

	var first, last float32
	step := 0
	for epoch := 0; epoch < 3; epoch++ {
		batches, err := sampler.Batches(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, seeds := range batches {
			batch, err := sampler.Sample(seeds)
			if err != nil {
				t.Fatal(err)
			}
			// The backward walks out-edges, which a batch does not carry:
			// the trainer builds its out-CSR itself.
			sub, err := graph.FromEdges(batch.Sub.N, batch.Sub.Srcs, batch.Sub.Dsts)
			if err != nil {
				t.Fatal(err)
			}
			rt := exec.NewRuntime(e, sub)
			h := e.Input(batch.GatherFeatures(feat), "h")
			out, err := c.Apply(rt, map[string]*nn.Variable{"h": h}, nil,
				map[string]*nn.Variable{"W": w})
			if err != nil {
				t.Fatal(err)
			}
			rowLabels, seedMask := make([]int, len(batch.Vertices)), make([]bool, len(batch.Vertices))
			for i, v := range batch.Vertices {
				rowLabels[i], seedMask[i] = labels[v], i < batch.SeedCount
			}
			loss := e.CrossEntropyMasked(out, rowLabels, seedMask)
			if step == 0 {
				first = loss.Value.At1(0)
			}
			last = loss.Value.At1(0)
			e.Backward(loss)
			opt.Step()
			e.EndIteration()
			step++
		}
	}
	if last >= first {
		t.Fatalf("mini-batch training did not learn: %v -> %v", first, last)
	}
}

func TestQuickSampleInvariants(t *testing.T) {
	f := func(seedVal int64, nRaw, fanRaw uint8) bool {
		n := int(nRaw%50) + 5
		fan := int(fanRaw%4) + 1
		rng := rand.New(rand.NewSource(seedVal))
		g := graph.PowerLaw(rng, n, 3)
		s, err := NewSampler(g, []int{fan, fan}, seedVal)
		if err != nil {
			return false
		}
		b, err := s.Sample([]int32{int32(rng.Intn(n))})
		if err != nil {
			return false
		}
		if b.Sub.Validate() != nil {
			return false
		}
		// Vertex map is injective.
		seen := map[int32]bool{}
		for _, v := range b.Vertices {
			if seen[v] || v < 0 || int(v) >= n {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleStreamIndependentOfSampling(t *testing.T) {
	// Regression test for the shuffle/sample RNG coupling: interleaving
	// Sample calls between Batches calls must not change the epoch's
	// batch order, and drawing batch plans must not change what Sample
	// draws.
	rng := rand.New(rand.NewSource(4))
	g := graph.PowerLaw(rng, 200, 4)

	a, _ := NewSampler(g, []int{3}, 9)
	b, _ := NewSampler(g, []int{3}, 9)

	// Sampler a interleaves neighbour sampling between epochs; b does
	// not. Their epoch orders must still agree.
	ord1a, _ := a.Batches(64)
	for i := 0; i < 5; i++ {
		if _, err := a.Sample([]int32{int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ord2a, _ := a.Batches(64)

	ord1b, _ := b.Batches(64)
	ord2b, _ := b.Batches(64)

	if !reflect.DeepEqual(ord1a, ord1b) || !reflect.DeepEqual(ord2a, ord2b) {
		t.Fatal("Sample calls perturbed the Batches shuffle stream")
	}
	if reflect.DeepEqual(ord1a, ord2a) {
		t.Fatal("consecutive epochs produced identical shuffles")
	}

	// And the converse: batch-plan draws must not perturb sampling.
	c, _ := NewSampler(g, []int{3}, 9)
	d, _ := NewSampler(g, []int{3}, 9)
	if _, err := c.Batches(32); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Sample([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := d.Sample([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Vertices, sd.Vertices) {
		t.Fatal("Batches calls perturbed the Sample stream")
	}
}

func TestPlanEpochDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.PowerLaw(rng, 150, 4)
	s, _ := NewSampler(g, []int{2}, 21)

	p1, err := s.PlanEpoch(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Burn state on every stream; the plan must not move.
	if _, err := s.Batches(16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample([]int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	p2, err := s.PlanEpoch(3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("PlanEpoch is stateful")
	}
	p3, _ := s.PlanEpoch(4, 40)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different epochs produced identical plans")
	}
	if _, err := s.PlanEpoch(-1, 40); err == nil {
		t.Fatal("negative epoch accepted")
	}

	// A sampler built from the same seed agrees — the plan is a pure
	// function of (baseSeed, epoch).
	s2, _ := NewSampler(g, []int{2}, 21)
	p4, _ := s2.PlanEpoch(3, 40)
	if !reflect.DeepEqual(p1, p4) {
		t.Fatal("PlanEpoch depends on sampler state, not just seed")
	}
}

func TestSampleSeededReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.PowerLaw(rng, 300, 5)
	s, _ := NewSampler(g, []int{4, 2}, 33)

	seeds := []int32{7, 42, 99}
	k := DeriveSeed(s.BaseSeed(), 2, 17)
	b1, err := s.SampleSeeded(seeds, k)
	if err != nil {
		t.Fatal(err)
	}
	// Same derived seed → identical batch, regardless of intervening
	// draws on the sampler's own streams.
	if _, err := s.Sample(seeds); err != nil {
		t.Fatal(err)
	}
	b2, err := s.SampleSeeded(seeds, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1.Vertices, b2.Vertices) ||
		!reflect.DeepEqual(b1.Sub.Srcs, b2.Sub.Srcs) ||
		!reflect.DeepEqual(b1.Sub.Dsts, b2.Sub.Dsts) {
		t.Fatal("SampleSeeded not reproducible")
	}
	// A different derived seed draws a different neighbourhood (with
	// overwhelming probability on a 300-vertex power-law graph).
	b3, err := s.SampleSeeded(seeds, DeriveSeed(s.BaseSeed(), 2, 18))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(b1.Vertices, b3.Vertices) && reflect.DeepEqual(b1.Sub.Srcs, b3.Sub.Srcs) {
		t.Fatal("distinct derived seeds produced identical batches")
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	// (epoch, batch) pairs must map to distinct seeds; collisions would
	// silently correlate batches.
	seen := map[int64]bool{}
	for e := -2; e < 40; e++ {
		for b := 0; b < 40; b++ {
			k := DeriveSeed(12345, e, b)
			if seen[k] {
				t.Fatalf("seed collision at epoch %d batch %d", e, b)
			}
			seen[k] = true
		}
	}
}

func TestGatherFeaturesInto(t *testing.T) {
	g := graph.Figure7()
	s, _ := NewSampler(g, []int{2}, 5)
	b, err := s.Sample([]int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	base := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	dst := tensor.New(len(b.Vertices), 2)
	b.GatherFeaturesInto(dst, base)
	want := b.GatherFeatures(base)
	if !reflect.DeepEqual(dst.Row(0), want.Row(0)) {
		t.Fatal("GatherFeaturesInto mismatch")
	}
	for i := range b.Vertices {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want.At(i, j) {
				t.Fatalf("row %d col %d: %g != %g", i, j, dst.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestNewSamplerAllocatesLittle: a sampler holds no RNG state, so serving,
// which builds one per published graph, pays a few hundred bytes for it,
// not two math/rand sources (≈ 5 KB each).
func TestNewSamplerAllocatesLittle(t *testing.T) {
	g := graph.Figure7()
	fan := []int{10, 5}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for rep := 0; rep < 5; rep++ { // the least of a few reads, in case the runtime allocated between two
		runtime.ReadMemStats(&before)
		s, err := NewSampler(g, fan, int64(rep))
		runtime.ReadMemStats(&after)
		if err != nil || s == nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1024 {
		t.Fatalf("NewSampler allocates %d bytes, want < 1 KB", least)
	}
}

// TestSampleAsIsFirstSample pins SampleAs's contract: it draws what a
// sampler seeded with the request's seed draws first, whichever sampler
// over the same graph and fan-out serves it.
func TestSampleAsIsFirstSample(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.PowerLaw(rng, 300, 4).SortByDegree()
	serving, err := NewSampler(g, []int{4, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		seeds := []int32{int32(rng.Intn(300)), int32(rng.Intn(300))}
		seed := rng.Int63()
		fresh, err := NewSampler(g, []int{4, 3}, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Sample(seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := serving.SampleAs(seeds, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBatch(got, want) {
			t.Fatalf("trial %d: SampleAs(%v, %d) differs from a fresh sampler's first Sample", trial, seeds, seed)
		}
	}
}

// sameBatch reports whether two batches hold the same vertices, hops and
// edges in the same rows; an empty slice equals a nil one.
func sameBatch(a, b *Batch) bool {
	x, y := a.Sub, b.Sub
	return a.SeedCount == b.SeedCount && x.N == y.N && x.M == y.M &&
		slices.Equal(a.Vertices, b.Vertices) &&
		slices.Equal(a.HopVertices, b.HopVertices) && slices.Equal(a.HopEdges, b.HopEdges) &&
		slices.Equal(x.Srcs, y.Srcs) && slices.Equal(x.Dsts, y.Dsts) &&
		slices.Equal(x.In.Offsets, y.In.Offsets) && slices.Equal(x.In.RowIDs, y.In.RowIDs) &&
		slices.Equal(x.In.Nbrs, y.In.Nbrs)
}

// TestBlockCut is the property a sampled forward's per-layer blocks rest
// on, over random graphs, fan-outs and seed lists (repeats allowed): the
// hop boundaries count what each hop drew, and Block(k) — the block of a
// layer whose output the next k layers read — is a valid graph whose
// destinations are the vertices within k hops, whose edges are those of
// hops 1..k+1 and every in-edge of those destinations, and whose sources
// are the vertices within k+1 hops. Past the sampled hops, and past a
// frontier that emptied, the block is the whole batch.
func TestBlockCut(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	emptied, cut := 0, 0
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(200)
		var g *graph.Graph
		switch trial % 3 {
		case 0: // sparse: frontiers often empty before the last hop
			g = graph.GNM(rng, n, rng.Intn(n))
		case 1:
			g = graph.PowerLaw(rng, n, 1+rng.Intn(4))
		default:
			g = graph.ZipfDegree(rng, n, 1+rng.Intn(6), 1.0).SortByDegree()
		}
		fan := make([]int, 1+rng.Intn(3))
		for i := range fan {
			fan[i] = 1 + rng.Intn(5)
		}
		s, err := NewSampler(g, fan, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]int32, 1+rng.Intn(6))
		for i := range seeds {
			seeds[i] = int32(rng.Intn(n)) // repeats allowed
		}
		b, err := s.SampleSeeded(seeds, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		sub, hv, he := b.Sub, b.HopVertices, b.HopEdges
		if sub.Out.Offsets != nil {
			t.Fatalf("trial %d: the batch carries an out-CSR", trial)
		}
		if len(hv) != len(fan)+1 || len(he) != len(fan)+1 || hv[0] != b.SeedCount || he[0] != 0 ||
			hv[len(fan)] != sub.N || he[len(fan)] != sub.M {
			t.Fatalf("trial %d, fan-out %v: hop boundaries %v / %v for %d seeds, %d vertices, %d edges",
				trial, fan, hv, he, b.SeedCount, sub.N, sub.M)
		}
		for k := 1; k <= len(fan); k++ {
			if hv[k] < hv[k-1] || he[k] < he[k-1] {
				t.Fatalf("trial %d: hop boundaries shrink: %v / %v", trial, hv, he)
			}
			if hv[k] == hv[k-1] && k < len(fan) {
				emptied++
			}
		}
		// An edge of hop k enters a vertex k−1 hops out from one within k.
		for k := 1; k <= len(fan); k++ {
			lo := 0
			if k > 1 {
				lo = hv[k-2]
			}
			for e := he[k-1]; e < he[k]; e++ {
				if d, u := int(sub.Dsts[e]), int(sub.Srcs[e]); d < lo || d >= hv[k-1] || u >= hv[k] {
					t.Fatalf("trial %d: hop-%d edge %d is %d→%d, boundaries %v", trial, k, e, u, d, hv)
				}
			}
		}
		for k := 0; k <= len(fan)+1; k++ {
			blk, err := b.Block(k)
			if err != nil {
				t.Fatalf("trial %d, fan-out %v: block %d: %v", trial, fan, k, err)
			}
			if err := blk.Validate(); err != nil {
				t.Fatalf("trial %d, fan-out %v: block %d: %v", trial, fan, k, err)
			}
			d, m, src := sub.N, sub.M, sub.N
			if k < len(fan) {
				d, m, src = hv[k], he[k+1], hv[k+1]
			}
			if blk.In.NumRows() != d || blk.M != m || blk.N != src {
				t.Fatalf("trial %d, fan-out %v, hops %v / %v: block %d has %d rows, %d edges, %d sources; want %d, %d, %d",
					trial, fan, hv, he, k, blk.In.NumRows(), blk.M, blk.N, d, m, src)
			}
			// Every in-edge of a destination is in the block.
			for e := m; e < sub.M; e++ {
				if int(sub.Dsts[e]) < d {
					t.Fatalf("trial %d: block %d misses edge %d into destination %d", trial, k, e, sub.Dsts[e])
				}
			}
			if blk != sub {
				cut++
			}
		}
	}
	if emptied == 0 || cut == 0 {
		t.Fatalf("%d samples emptied a frontier early, %d blocks were cut: the grid misses a case", emptied, cut)
	}
}
