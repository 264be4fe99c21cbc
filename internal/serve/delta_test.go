package serve_test

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// deltaMirror is the brute-force model of a delta chain: a plain edge
// list plus dense feature rows, rebuilt from scratch after every step.
// It replicates graph.Delta semantics (removals first, vertex removal
// isolates, survivors keep their order, adds append in delta order).
type deltaMirror struct {
	n     int
	d     int
	edges []graph.Edge
	feat  [][]float32
}

func newDeltaMirror(rng *rand.Rand, n, d, m int) *deltaMirror {
	mir := &deltaMirror{n: n, d: d}
	for i := 0; i < m; i++ {
		mir.edges = append(mir.edges, graph.Edge{
			Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n)),
		})
	}
	for v := 0; v < n; v++ {
		row := make([]float32, d)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		mir.feat = append(mir.feat, row)
	}
	return mir
}

func (m *deltaMirror) apply(d *serve.Delta) {
	removedV := map[int32]bool{}
	for _, v := range d.RemoveVertices {
		removedV[v] = true
	}
	removedE := map[graph.Edge]bool{}
	for _, e := range d.RemoveEdges {
		removedE[e] = true
	}
	kept := m.edges[:0:len(m.edges)]
	for _, e := range m.edges {
		if removedV[e.Src] || removedV[e.Dst] || removedE[e] {
			continue
		}
		kept = append(kept, e)
	}
	m.edges = append(kept, d.AddEdges...)
	m.n += d.AddVertices
	for len(m.feat) < m.n {
		m.feat = append(m.feat, make([]float32, m.d))
	}
	for _, u := range d.Features {
		copy(m.feat[u.Node], u.Row)
	}
}

// clone copies the mirror so a forked chain can be followed on its own.
func (m *deltaMirror) clone() *deltaMirror {
	c := &deltaMirror{n: m.n, d: m.d, edges: slices.Clone(m.edges)}
	for _, row := range m.feat {
		c.feat = append(c.feat, slices.Clone(row))
	}
	return c
}

func (m *deltaMirror) graph(t testing.TB) *graph.Graph {
	t.Helper()
	srcs := make([]int32, len(m.edges))
	dsts := make([]int32, len(m.edges))
	for i, e := range m.edges {
		srcs[i], dsts[i] = e.Src, e.Dst
	}
	g, err := graph.FromEdges(m.n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (m *deltaMirror) featTensor() *tensor.Tensor {
	t := tensor.New(m.n, m.d)
	for v, row := range m.feat {
		copy(t.Row(v), row)
	}
	return t
}

// scratchLogits rebuilds the mirror state from scratch and runs the full
// serial forward — the reference every delta child must match bitwise.
func (m *deltaMirror) scratchLogits(t testing.TB, model *serve.Model) *tensor.Tensor {
	t.Helper()
	snap, err := serve.NewSnapshot(m.graph(t), m.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	env := &serve.ForwardEnv{Dev: device.New(device.V100)}
	logits, err := snap.EnsureEmbeddings(model, env)
	if err != nil {
		t.Fatal(err)
	}
	return logits
}

// randomDelta draws a valid delta against the mirror's current state:
// removals only of live edges not incident to removed vertices, adds and
// feature updates in range.
func randomDelta(rng *rand.Rand, m *deltaMirror, gen uint64) *serve.Delta {
	d := &serve.Delta{ParentGen: gen}
	removedV := map[int32]bool{}
	if m.n > 8 && rng.Intn(3) == 0 {
		v := int32(rng.Intn(m.n))
		d.RemoveVertices = []int32{v}
		removedV[v] = true
	}
	if len(m.edges) > 4 {
		seen := map[graph.Edge]bool{}
		for k := rng.Intn(3); k > 0 && len(m.edges) > 0; k-- {
			e := m.edges[rng.Intn(len(m.edges))]
			if seen[e] || removedV[e.Src] || removedV[e.Dst] {
				continue
			}
			seen[e] = true
			d.RemoveEdges = append(d.RemoveEdges, e)
		}
	}
	d.AddVertices = rng.Intn(3)
	newN := m.n + d.AddVertices
	for k := 1 + rng.Intn(4); k > 0; k-- {
		d.AddEdges = append(d.AddEdges, graph.Edge{
			Src: int32(rng.Intn(newN)), Dst: int32(rng.Intn(newN)),
		})
	}
	for k := rng.Intn(3); k > 0; k-- {
		row := make([]float32, m.d)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		d.Features = append(d.Features, serve.FeatureUpdate{
			Node: int32(rng.Intn(newN)), Row: row,
		})
	}
	return d
}

func requireGraphEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N != want.N || got.M != want.M {
		t.Fatalf("graph shape (%d,%d) != scratch (%d,%d)", got.N, got.M, want.N, want.M)
	}
	eq32 := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s length %d != %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, scratch has %d", name, i, a[i], b[i])
			}
		}
	}
	eq32("srcs", got.Srcs, want.Srcs)
	eq32("dsts", got.Dsts, want.Dsts)
	eq32("in.nbrs", got.In.Nbrs, want.In.Nbrs)
	eq32("in.eids", got.In.EdgeIDs, want.In.EdgeIDs)
	eq32("out.nbrs", got.Out.Nbrs, want.Out.Nbrs)
	eq32("out.eids", got.Out.EdgeIDs, want.Out.EdgeIDs)
	for v := 0; v <= got.N; v++ {
		if got.In.Offsets[v] != want.In.Offsets[v] || got.Out.Offsets[v] != want.Out.Offsets[v] {
			t.Fatalf("offsets diverge at vertex %d", v)
		}
	}
}

// runDeltaChain drives nSteps random deltas for one arch and checks, at
// every step, that the structurally-shared child is byte-identical to a
// rebuild from scratch: the flattened graph, the patched normalizer, and
// the (incrementally patched) logits.
func runDeltaChain(t *testing.T, spec serve.ModelSpec, frontierLimit float64, wantIncremental bool) {
	rng := rand.New(rand.NewSource(41))
	mir := newDeltaMirror(rng, 300, 16, 1500)
	model, err := serve.BuildModel(spec, mir.d, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100)}); err != nil {
		t.Fatal(err)
	}
	opt := &serve.DeltaOptions{Model: model, FrontierLimit: frontierLimit, Profile: device.V100}
	incremental := 0
	for step := 0; step < 6; step++ {
		d := randomDelta(rng, mir, 0)
		child, st, err := serve.ApplyDelta(snap, d, opt)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		mir.apply(d)
		requireGraphEqual(t, child.Graph(), mir.graph(t))
		if st.Recompute == "incremental" {
			incremental++
		}

		scratch := mir.scratchLogits(t, model)
		got, err := child.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100)})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensorBits(got, scratch) {
			t.Fatalf("step %d (%s): logits diverge from rebuild-from-scratch", step, st.Recompute)
		}
		if spec.Arch == "gcn" {
			scratchSnap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
			if err != nil {
				t.Fatal(err)
			}
			if !sameTensorBits(child.Norm(), scratchSnap.Norm()) {
				t.Fatalf("step %d: patched norm diverges from scratch", step)
			}
		}
		snap = child
	}
	if wantIncremental && incremental == 0 {
		t.Fatal("no delta took the incremental path; the patcher never ran")
	}
}

func TestDeltaChainEquivalenceGCN(t *testing.T) {
	runDeltaChain(t, serve.ModelSpec{Arch: "gcn", Hidden: 16, Classes: 5, Seed: 7}, 1.0, true)
}

func TestDeltaChainEquivalenceGAT(t *testing.T) {
	runDeltaChain(t, serve.ModelSpec{Arch: "gat", Hidden: 16, Classes: 5, Seed: 7}, 1.0, true)
}

// TestDeltaFallbackFullMatches forces the frontier limit to zero so every
// delta takes the eager full-recompute path, which must be bitwise
// equivalent too (it is the same forward the scratch rebuild runs).
func TestDeltaFallbackFullMatches(t *testing.T) {
	runDeltaChain(t, serve.ModelSpec{Arch: "gcn", Hidden: 16, Classes: 5, Seed: 7}, 1e-9, false)
}

// deltaFixture is the setting the ownership tests share: a 300-vertex
// mirror, its snapshot with arch's embeddings already settled — the state
// an incremental delta patches from — and options under which every
// delta patches incrementally (opt.Model is the model).
func deltaFixture(t *testing.T, seed int64, arch string) (*rand.Rand, *deltaMirror, *serve.Snapshot, *serve.DeltaOptions) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mir := newDeltaMirror(rng, 300, 16, 1500)
	model, err := serve.BuildModel(serve.ModelSpec{Arch: arch, Hidden: 16, Classes: 5, Seed: 7}, mir.d, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100)}); err != nil {
		t.Fatal(err)
	}
	return rng, mir, snap, &serve.DeltaOptions{Model: model, FrontierLimit: 1.0, Profile: device.V100}
}

// applyAndCheck applies d to snap, follows it on mir, and requires the
// recompute mode and logits bitwise-equal to a rebuild from scratch.
func applyAndCheck(t *testing.T, snap *serve.Snapshot, mir *deltaMirror, d *serve.Delta,
	opt *serve.DeltaOptions, wantMode string) (*serve.Snapshot, *tensor.Tensor) {
	t.Helper()
	child, st, err := serve.ApplyDelta(snap, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recompute != wantMode {
		t.Fatalf("recompute mode %q, want %q", st.Recompute, wantMode)
	}
	mir.apply(d)
	got, err := child.EnsureEmbeddings(opt.Model, &serve.ForwardEnv{Dev: device.New(device.V100)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTensorBits(got, mir.scratchLogits(t, opt.Model)) {
		t.Fatalf("%s child diverges from rebuild-from-scratch", st.Recompute)
	}
	return child, got
}

// TestDeltaForkSameParent pins who owns aux: the first delta on a parent
// takes it and patches incrementally; a second, different delta on the
// same parent finds it gone and recomputes in full. Both children are
// bitwise-equal to a rebuild.
func TestDeltaForkSameParent(t *testing.T) {
	rng, mir, parent, opt := deltaFixture(t, 43, "gcn")
	fork := mir.clone()
	first, second := randomDelta(rng, mir, 0), randomDelta(rng, mir, 0)
	applyAndCheck(t, parent, mir, first, opt, "incremental")
	child, _ := applyAndCheck(t, parent, fork, second, opt, "full")
	// The full recompute settled a fresh aux on the fork: its chain patches again.
	applyAndCheck(t, child, fork, &serve.Delta{AddEdges: []graph.Edge{{Src: 1, Dst: 2}}}, opt, "incremental")
}

// TestDeltaForkRace applies four different deltas to one parent at once:
// exactly one of them gets aux and patches incrementally, the others
// recompute in full, and every child is bitwise-equal to a rebuild.
func TestDeltaForkRace(t *testing.T) {
	rng, mir, parent, opt := deltaFixture(t, 67, "gat")
	model := opt.Model
	const forks = 4
	var (
		deltas   [forks]*serve.Delta
		children [forks]*serve.Snapshot
		stats    [forks]*serve.DeltaStats
		errs     [forks]error
		wg       sync.WaitGroup
	)
	for i := range deltas {
		deltas[i] = randomDelta(rng, mir, 0)
	}
	for i := range deltas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			children[i], stats[i], errs[i] = serve.ApplyDelta(parent, deltas[i], opt)
		}()
	}
	wg.Wait()
	incremental := 0
	for i, child := range children {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if stats[i].Recompute == "incremental" {
			incremental++
		}
		fork := mir.clone()
		fork.apply(deltas[i])
		got, err := child.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100)})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensorBits(got, fork.scratchLogits(t, model)) {
			t.Fatalf("fork %d (%s) diverges from rebuild-from-scratch", i, stats[i].Recompute)
		}
	}
	if incremental != 1 {
		t.Fatalf("%d of %d forks patched incrementally, want exactly 1", incremental, forks)
	}
}

// TestDeltaSpans: with tracing on, one delta leaves a span per stage and
// the recompute span carries the frontier size and the mode, so a slow
// delta can be explained from /debug/trace.
func TestDeltaSpans(t *testing.T) {
	rng, mir, snap, opt := deltaFixture(t, 59, "gcn")
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	_, st, err := serve.ApplyDelta(snap, randomDelta(rng, mir, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]obs.Entry{}
	for _, e := range obs.Snapshot() {
		if e.Cat == "serve" {
			spans[e.Name] = e
		}
	}
	for _, name := range []string{"delta-graph", "delta-feat", "delta-recompute"} {
		if spans[name].Count != 1 {
			t.Errorf("span serve/%s recorded %d times, want 1", name, spans[name].Count)
		}
	}
	if c := spans["delta-recompute"].Counters; c["frontier_rows"] != int64(st.Frontier) || c["incremental"] != 1 {
		t.Errorf("serve/delta-recompute counters = %v, want frontier_rows %d and incremental 1", c, st.Frontier)
	}
}

// TestDeltaReaderIsolation: the logits tensor a reader got at generation
// g is byte-identical after every later delta — in-place patching touches
// aux only, never what a reader can hold.
func TestDeltaReaderIsolation(t *testing.T) {
	for _, arch := range []string{"gcn", "gat"} {
		t.Run(arch, func(t *testing.T) {
			rng, mir, snap, opt := deltaFixture(t, 47, arch)
			held, err := snap.EnsureEmbeddings(opt.Model, &serve.ForwardEnv{Dev: device.New(device.V100)})
			if err != nil {
				t.Fatal(err)
			}
			type reading struct{ live, copied *tensor.Tensor }
			readings := []reading{{held, held.Clone()}}
			for step := 0; step < 5; step++ {
				snap, held = applyAndCheck(t, snap, mir, randomDelta(rng, mir, 0), opt, "incremental")
				readings = append(readings, reading{held, held.Clone()})
			}
			for g, r := range readings {
				if !sameTensorBits(r.live, r.copied) {
					t.Fatalf("logits read at step %d changed under later deltas", g)
				}
			}
		})
	}
}

// TestDeltaGrowthChain: every step adds vertices (so aux is reallocated,
// not patched in place), wires them in and edits features, old and new.
func TestDeltaGrowthChain(t *testing.T) {
	rng, mir, snap, opt := deltaFixture(t, 53, "gat")
	for step := 0; step < 5; step++ {
		d := randomDelta(rng, mir, 0)
		d.AddVertices = 1 + step%3
		fresh := int32(mir.n + d.AddVertices - 1)
		d.AddEdges = append(d.AddEdges, graph.Edge{Src: int32(rng.Intn(mir.n)), Dst: fresh}, graph.Edge{Src: fresh, Dst: int32(rng.Intn(mir.n))})
		d.Features = append(d.Features, serve.FeatureUpdate{Node: fresh, Row: slices.Clone(mir.feat[step])})
		snap, _ = applyAndCheck(t, snap, mir, d, opt, "incremental")
	}
}

// TestDeltaAllocBudget: a 9-mutation incremental delta on a 20 k-vertex
// Zipf snapshot allocates less than one [N, hidden] tensor, so a
// whole-state clone cannot come back unnoticed.
func TestDeltaAllocBudget(t *testing.T) {
	const hidden = 64
	snap := zipfSnapshot(t, 20000)
	model, err := serve.BuildModel(serve.ModelSpec{Arch: "gcn", Hidden: hidden, Classes: 8, Seed: 1}, snap.FeatDim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100)}); err != nil {
		t.Fatal(err)
	}
	opt := &serve.DeltaOptions{Model: model, Profile: device.V100, Pool: tensor.NewPool()}
	deltas := mixedDeltas(snap, 3)
	var before, after runtime.MemStats
	for i, d := range deltas { // the first chunks the root and warms the pool
		runtime.ReadMemStats(&before)
		child, st, err := serve.ApplyDelta(snap, d, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Recompute != "incremental" {
			t.Fatalf("delta %d recomputed %q, want incremental", i, st.Recompute)
		}
		snap = child
	}
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(snap.NumVertices()*hidden*4)
	t.Logf("delta allocated %d B (frontier budget: one [N,%d] tensor = %d B)", got, hidden, budget)
	if got >= budget {
		t.Fatalf("delta allocated %d B, want < %d B (one [N, hidden] tensor)", got, budget)
	}
}

// TestDeltaErrorPaths is the table of rejections: stale generations at
// the engine, bad feature shapes, out-of-range vertices, removing
// nonexistent edges, and typed (R-GCN) snapshots.
func TestDeltaErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mir := newDeltaMirror(rng, 40, 8, 120)
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    serve.Delta
		want string
	}{
		{"feature dim mismatch", serve.Delta{Features: []serve.FeatureUpdate{{Node: 1, Row: make([]float32, 3)}}}, "dim"},
		{"feature node out of range", serve.Delta{Features: []serve.FeatureUpdate{{Node: 40, Row: make([]float32, 8)}}}, "out of range"},
		{"remove vertex out of range", serve.Delta{RemoveVertices: []int32{-1}}, "out of range"},
		{"remove missing edge", serve.Delta{RemoveEdges: []graph.Edge{{Src: 39, Dst: 39}}}, "no such edge"},
		{"add edge out of range", serve.Delta{AddEdges: []graph.Edge{{Src: 0, Dst: 41}}}, "out of range"},
		{"negative add vertices", serve.Delta{AddVertices: -2}, "negative"},
		{"hostile add vertices", serve.Delta{AddVertices: 2000000000}, "swap the graph"},
		{"add vertices past int32", serve.Delta{AddVertices: math.MaxInt32}, "overflows int32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Self-edge 39→39 may exist in the random mirror; drop it first.
			if tc.name == "remove missing edge" {
				for _, e := range mir.edges {
					if e.Src == 39 && e.Dst == 39 {
						t.Skip("random mirror happens to have 39→39")
					}
				}
			}
			_, _, err := serve.ApplyDelta(snap, &tc.d, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	typedG := mir.graph(t)
	types := make([]int32, typedG.M)
	if err := typedG.WithEdgeTypes(types, 1); err != nil {
		t.Fatal(err)
	}
	typedSnap, err := serve.NewSnapshot(typedG, mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := serve.ApplyDelta(typedSnap, &serve.Delta{AddVertices: 1}, nil); !errors.Is(err, serve.ErrDeltaUnsupported) {
		t.Fatalf("typed snapshot: want ErrDeltaUnsupported, got %v", err)
	}
}

// TestEngineDeltaGeneration checks the optimistic-concurrency handshake:
// generations start at 1, bump on swap and delta, stale parents are
// rejected with ErrStaleGeneration, and answers carry the generation they
// were computed on.
func TestEngineDeltaGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mir := newDeltaMirror(rng, 60, 8, 200)
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Spec: serve.ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 1}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if g := eng.Generation(); g != 1 {
		t.Fatalf("fresh engine generation = %d, want 1", g)
	}
	if err := eng.SwapGraph(snap); err != nil {
		t.Fatal(err)
	}
	if g := eng.Generation(); g != 2 {
		t.Fatalf("post-swap generation = %d, want 2", g)
	}
	if _, err := eng.ApplyDelta(&serve.Delta{ParentGen: 1, AddVertices: 1}); !errors.Is(err, serve.ErrStaleGeneration) {
		t.Fatalf("stale delta: want ErrStaleGeneration, got %v", err)
	}
	st, err := eng.ApplyDelta(&serve.Delta{ParentGen: 2, AddVertices: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != 3 || eng.Generation() != 3 {
		t.Fatalf("delta stats gen %d, engine gen %d, want 3", st.Gen, eng.Generation())
	}
	res, err := eng.Infer(t.Context(), []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 3 {
		t.Fatalf("result generation %d, want 3", res.Gen)
	}
	if eng.Metrics().Deltas.Load() != 1 || eng.Metrics().DeltasRejected.Load() != 1 {
		t.Fatalf("delta counters = %d applied / %d rejected, want 1/1",
			eng.Metrics().Deltas.Load(), eng.Metrics().DeltasRejected.Load())
	}
}

// TestEngineDeltaSwapRace races ApplyDelta (with stale-retry) against
// SwapGraph: every successful publication must take a distinct,
// monotonically observed generation, and stale deltas must be the only
// failure mode.
func TestEngineDeltaSwapRace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mir := newDeltaMirror(rng, 60, 8, 200)
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Spec: serve.ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 1}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	gens := map[uint64]bool{}
	wg.Add(2)
	go func() {
		defer wg.Done()
		applied := 0
		for applied < 10 {
			st, err := eng.ApplyDelta(&serve.Delta{ParentGen: eng.Generation(), AddVertices: 1})
			if errors.Is(err, serve.ErrStaleGeneration) {
				continue // rebased on the next Generation() read
			}
			if err != nil {
				t.Errorf("delta: %v", err)
				return
			}
			mu.Lock()
			if gens[st.Gen] {
				t.Errorf("generation %d published twice", st.Gen)
			}
			gens[st.Gen] = true
			mu.Unlock()
			applied++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := eng.SwapGraph(snap); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// 1 initial + 10 deltas + 10 swaps.
	if g := eng.Generation(); g != 21 {
		t.Fatalf("final generation %d, want 21", g)
	}
}

// TestHTTPDelta drives the /v1/graph/delta endpoint end to end: a valid
// delta answers 200 with the new generation and sharing stats, a stale
// parent generation answers 409 Conflict, and garbage answers 400.
func TestHTTPDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mir := newDeltaMirror(rng, 60, 8, 200)
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Spec: serve.ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 1}, EmbedCache: true}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(serve.Handler(eng))
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/graph/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}

	resp, out := post(`{"parent_gen":1,"add_vertices":1,"add_edges":[{"src":0,"dst":60}],"features":[{"node":60,"row":[1,0,0,0,0,0,0,0]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid delta: status %d", resp.StatusCode)
	}
	if out["gen"].(float64) != 2 || out["n"].(float64) != 61 {
		t.Fatalf("delta response = %v, want gen 2 / n 61", out)
	}

	resp, _ = post(`{"parent_gen":1,"add_vertices":1}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delta: status %d, want 409", resp.StatusCode)
	}
	resp, _ = post(`{"parent_gen":2,"remove_edges":[{"src":59,"dst":60}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad delta: status %d, want 400", resp.StatusCode)
	}
	// A delta that would grow the graph without bound is refused before
	// anything is allocated: a plain 400, and the server lives on.
	resp, _ = post(`{"parent_gen":2,"add_vertices":2000000000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile add_vertices: status %d, want 400", resp.StatusCode)
	}
	if g := eng.Generation(); g != 2 {
		t.Fatalf("generation after failed deltas = %d, want 2", g)
	}
	// A body past the 64 MiB cap is cut off with 413 (streamed here, so the
	// test never holds it either), and the next delta still applies.
	big := io.MultiReader(strings.NewReader(`{"parent_gen":2,"pad":"`), io.LimitReader(xs{}, 64<<20), strings.NewReader(`"}`))
	r, err := http.Post(srv.URL+"/v1/graph/delta", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized delta body: status %d, want 413", r.StatusCode)
	}
	if resp, out = post(`{"parent_gen":2,"add_edges":[{"src":1,"dst":2}]}`); resp.StatusCode != http.StatusOK || out["gen"].(float64) != 3 {
		t.Fatalf("delta after an oversized body: status %d, %v", resp.StatusCode, out)
	}
}

// xs is an endless stream of 'x'.
type xs struct{}

func (xs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestSampledDeltaRejected: a sampled-serving engine (non-empty fan-out)
// must refuse graph deltas with a clean 400 and an explanatory error —
// sampled plans are drawn against a fixed snapshot, and patching it
// under a live sampler would mix generations silently.
func TestSampledDeltaRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mir := newDeltaMirror(rng, 60, 8, 200)
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{
		Spec:   serve.ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 1},
		FanOut: []int{4, 4},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if _, err := eng.ApplyDelta(&serve.Delta{ParentGen: eng.Generation(), AddVertices: 1}); !errors.Is(err, serve.ErrSampledDelta) {
		t.Fatalf("ApplyDelta in sampled mode: %v, want ErrSampledDelta", err)
	}

	srv := httptest.NewServer(serve.Handler(eng))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/graph/delta", "application/json",
		strings.NewReader(`{"parent_gen":1,"add_vertices":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sampled delta: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "sampled") {
		t.Fatalf("sampled delta error not explanatory: %q", body)
	}
	if g := eng.Generation(); g != 1 {
		t.Fatalf("generation moved to %d under rejected delta", g)
	}
}

// TestDeltaInferSoak is the concurrent bitwise gate: an EmbedCache engine
// serves inference while a writer applies deltas. Every response carries
// its generation; each must match, bit for bit, the logits of a
// rebuilt-from-scratch snapshot of that generation's graph.
func TestDeltaInferSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mir := newDeltaMirror(rng, 200, 16, 900)
	spec := serve.ModelSpec{Arch: "gcn", Hidden: 16, Classes: 5, Seed: 7}
	snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Spec: spec, EmbedCache: true, DeltaFrontierLimit: 1.0}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	model, err := serve.BuildModel(spec, mir.d, 1)
	if err != nil {
		t.Fatal(err)
	}

	// truth[gen] = scratch logits for that generation, recorded by the
	// writer after each publish. Readers record samples and the test
	// verifies them all at the end, so a sample racing ahead of the truth
	// map is fine.
	truth := sync.Map{}
	truth.Store(uint64(1), mir.scratchLogits(t, model))

	type sample struct {
		gen   uint64
		nodes []int32
		bits  []uint32
	}
	var samples []sample
	var sampleMu sync.Mutex

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				nodes := []int32{int32(rng.Intn(100)), int32(rng.Intn(100))}
				res, err := eng.Infer(t.Context(), nodes)
				if err != nil {
					continue // queue-full under race scheduler is fine
				}
				bits := make([]uint32, res.Logits.Size())
				for i := range bits {
					bits[i] = math.Float32bits(res.Logits.At1(i))
				}
				sampleMu.Lock()
				samples = append(samples, sample{gen: res.Gen, nodes: nodes, bits: bits})
				sampleMu.Unlock()
			}
		}(int64(100 + r))
	}

	sampleCount := func() int {
		sampleMu.Lock()
		defer sampleMu.Unlock()
		return len(samples)
	}
	for step := 0; step < 8; step++ {
		for {
			d := randomDelta(rng, mir, eng.Generation())
			st, err := eng.ApplyDelta(d)
			if errors.Is(err, serve.ErrStaleGeneration) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			mir.apply(d)
			truth.Store(st.Gen, mir.scratchLogits(t, model))
			break
		}
		// Let inference interleave with the mutation stream: wait until
		// at least one more response lands before the next delta.
		want := step + 1
		for sampleCount() < want {
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	readers.Wait()

	checked := 0
	for _, s := range samples {
		v, ok := truth.Load(s.gen)
		if !ok {
			t.Fatalf("response for unknown generation %d", s.gen)
		}
		logits := v.(*tensor.Tensor)
		cols := logits.Cols()
		for i, node := range s.nodes {
			for j := 0; j < cols; j++ {
				want := math.Float32bits(logits.At(int(node), j))
				if s.bits[i*cols+j] != want {
					t.Fatalf("gen %d node %d col %d: served bits %#x, scratch %#x",
						s.gen, node, j, s.bits[i*cols+j], want)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("soak produced no verified samples")
	}
	t.Logf("soak verified %d responses across %d generations", checked, 9)
}
