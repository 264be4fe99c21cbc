package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mirror is the reference model: a plain edge list mutated the slow way.
type mirror struct {
	n     int
	edges []Edge
}

func mirrorOf(g *Graph) *mirror {
	m := &mirror{n: g.N}
	for i := range g.Srcs {
		m.edges = append(m.edges, Edge{Src: g.Srcs[i], Dst: g.Dsts[i]})
	}
	return m
}

// apply mutates the mirror: drop removed edges preserving order, then
// append additions in delta order — the canonical edge list Apply's
// monotone edge-id renumbering is specified against.
func (m *mirror) apply(d *Delta) {
	iso := map[int32]bool{}
	for _, v := range d.RemoveVertices {
		iso[v] = true
	}
	rm := map[Edge]bool{}
	for _, e := range d.RemoveEdges {
		rm[e] = true
	}
	kept := m.edges[:0:0]
	for _, e := range m.edges {
		if iso[e.Src] || iso[e.Dst] || rm[e] {
			continue
		}
		kept = append(kept, e)
	}
	m.n += d.AddVertices
	m.edges = append(kept, d.AddEdges...)
}

func (m *mirror) graph(t *testing.T) *Graph {
	t.Helper()
	srcs := make([]int32, len(m.edges))
	dsts := make([]int32, len(m.edges))
	for i, e := range m.edges {
		srcs[i], dsts[i] = e.Src, e.Dst
	}
	g, err := FromEdges(m.n, srcs, dsts)
	if err != nil {
		t.Fatalf("mirror FromEdges: %v", err)
	}
	return g
}

func requireFlatEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N != want.N || got.M != want.M {
		t.Fatalf("shape: got n=%d m=%d want n=%d m=%d", got.N, got.M, want.N, want.M)
	}
	if !reflect.DeepEqual(got.Srcs, want.Srcs) || !reflect.DeepEqual(got.Dsts, want.Dsts) {
		t.Fatalf("edge lists differ")
	}
	for _, side := range []struct {
		name      string
		got, want CSR
	}{{"in", got.In, want.In}, {"out", got.Out, want.Out}} {
		if !reflect.DeepEqual(side.got.Offsets, side.want.Offsets) {
			t.Fatalf("%s offsets differ", side.name)
		}
		if !reflect.DeepEqual(side.got.Nbrs, side.want.Nbrs) {
			t.Fatalf("%s nbrs differ", side.name)
		}
		if !reflect.DeepEqual(side.got.EdgeIDs, side.want.EdgeIDs) {
			t.Fatalf("%s edge ids differ", side.name)
		}
		if !reflect.DeepEqual(side.got.RowIDs, side.want.RowIDs) {
			t.Fatalf("%s row ids differ", side.name)
		}
	}
}

func TestDeltaGraphFlattenMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ZipfDegree(rng, 3000, 6, 1.0)
	dg, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	requireFlatEqual(t, dg.Flatten(), g)
	if err := dg.Flatten().Validate(); err != nil {
		t.Fatalf("flatten validate: %v", err)
	}
}

func TestDeltaApplyChainMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := ZipfDegree(rng, 2500, 5, 1.1)
	dg, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	m := mirrorOf(g)

	for step := 0; step < 12; step++ {
		d := randomDelta(rng, m)
		child, st, err := dg.Apply(d)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		m.apply(d)
		want := m.graph(t)
		requireFlatEqual(t, child.Flatten(), want)
		if child.N() != m.n || child.M() != len(m.edges) {
			t.Fatalf("step %d: shape n=%d m=%d want n=%d m=%d", step, child.N(), child.M(), m.n, len(m.edges))
		}
		if !sort.SliceIsSorted(st.Touched, func(a, b int) bool { return st.Touched[a] < st.Touched[b] }) {
			t.Fatalf("step %d: touched not sorted", step)
		}
		// Degrees of every untouched vertex must be unchanged.
		tset := map[int32]bool{}
		for _, v := range st.Touched {
			tset[v] = true
		}
		for v := 0; v < dg.N(); v++ {
			if tset[int32(v)] {
				continue
			}
			if child.in.Degree(int32(v)) != dg.in.Degree(int32(v)) ||
				child.out.Degree(int32(v)) != dg.out.Degree(int32(v)) {
				t.Fatalf("step %d: untouched vertex %d changed degree", step, v)
			}
		}
		dg = child
	}
}

func randomDelta(rng *rand.Rand, m *mirror) *Delta {
	d := &Delta{}
	if rng.Intn(4) == 0 {
		d.AddVertices = rng.Intn(3)
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		d.AddEdges = append(d.AddEdges, Edge{
			Src: int32(rng.Intn(m.n + d.AddVertices)),
			Dst: int32(rng.Intn(m.n + d.AddVertices)),
		})
	}
	if len(m.edges) > 0 && rng.Intn(2) == 0 {
		e := m.edges[rng.Intn(len(m.edges))]
		d.RemoveEdges = append(d.RemoveEdges, e)
	}
	if rng.Intn(5) == 0 {
		d.RemoveVertices = append(d.RemoveVertices, int32(rng.Intn(m.n)))
	}
	// RemoveEdges entries must not collide with isolated vertices (the
	// isolation already removes them, and the explicit entry would then
	// fail to match): drop such entries.
	iso := map[int32]bool{}
	for _, v := range d.RemoveVertices {
		iso[v] = true
	}
	kept := d.RemoveEdges[:0]
	for _, e := range d.RemoveEdges {
		if !iso[e.Src] && !iso[e.Dst] {
			kept = append(kept, e)
		}
	}
	d.RemoveEdges = kept
	return d
}

func TestDeltaStructuralSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8 * DeltaChunkRows
	g := ZipfDegree(rng, n, 4, 1.0)
	dg, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// A single added edge inside one chunk: per direction at most one
	// chunk is rebuilt, the rest shared by pointer.
	child, st, err := dg.Apply(&Delta{AddEdges: []Edge{{Src: 10, Dst: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.CopiedChunks > 2 {
		t.Fatalf("copied %d chunks for a one-edge add, want <=2", st.CopiedChunks)
	}
	if st.SharedChunks < 14 {
		t.Fatalf("shared only %d chunks of 16", st.SharedChunks)
	}
	if st.RemappedChunks != 0 {
		t.Fatalf("remapped %d chunks on a pure add", st.RemappedChunks)
	}
	// Clean chunks are the same pointers.
	if child.in.chunks[5] != dg.in.chunks[5] {
		t.Fatal("clean chunk not shared by pointer")
	}

	// A removal forces the edge-id remap: clean chunks share offs/nbrs
	// but carry fresh eids.
	child2, st2, err := child.Apply(&Delta{RemoveEdges: []Edge{{Src: 10, Dst: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.SharedChunks != 0 {
		t.Fatalf("shared %d chunks under a remap", st2.SharedChunks)
	}
	if st2.RemappedChunks == 0 {
		t.Fatal("expected remapped chunks on removal")
	}
	var found bool
	for ci, ch := range child2.in.chunks {
		old := child.in.chunks[ci]
		if ch != old && &ch.offs[0] == &old.offs[0] {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("remapped chunks do not share offset arrays")
	}
}

func TestDeltaRemoveVertexIsolates(t *testing.T) {
	// 0→1, 1→2, 2→0, 1→1 (self loop).
	dg, err := NewDeltaGraph(3, []int32{0, 1, 2, 1}, []int32{1, 2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	child, st, err := dg.Apply(&Delta{RemoveVertices: []int32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if child.N() != 3 {
		t.Fatalf("vertex ids must stay stable, n=%d", child.N())
	}
	if child.M() != 1 { // only 2→0 survives
		t.Fatalf("m=%d want 1", child.M())
	}
	if child.in.Degree(1) != 0 || child.out.Degree(1) != 0 {
		t.Fatal("vertex 1 not isolated")
	}
	if got := st.RemovedEdges; got != 3 {
		t.Fatalf("removed %d edges (self loop double-counted?), want 3", got)
	}
}

func TestDeltaApplyErrors(t *testing.T) {
	dg, err := NewDeltaGraph(4, []int32{0, 1}, []int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
	}{
		{"remove missing edge", Delta{RemoveEdges: []Edge{{Src: 2, Dst: 3}}}},
		{"remove edge twice", Delta{RemoveEdges: []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}}},
		{"remove edge out of range", Delta{RemoveEdges: []Edge{{Src: 0, Dst: 9}}}},
		{"remove vertex out of range", Delta{RemoveVertices: []int32{4}}},
		{"remove negative vertex", Delta{RemoveVertices: []int32{-1}}},
		{"add edge out of range", Delta{AddEdges: []Edge{{Src: 0, Dst: 4}}}},
		{"negative add vertices", Delta{AddVertices: -1}},
		{"add vertices past int32", Delta{AddVertices: math.MaxInt32}},
		{"add vertices more than doubling", Delta{AddVertices: DeltaChunkRows + 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := dg.Apply(&tc.d); err == nil {
				t.Fatal("want error")
			}
		})
	}
	// Add-edge referencing a vertex added by the same delta is valid.
	if _, _, err := dg.Apply(&Delta{AddVertices: 1, AddEdges: []Edge{{Src: 3, Dst: 4}}}); err != nil {
		t.Fatalf("add to new vertex: %v", err)
	}
}

func TestExpandOut(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := ZipfDegree(rng, 4000, 7, 1.0)
	dg, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		seed := map[int32]bool{}
		for i := 0; i < 1+rng.Intn(40); i++ {
			seed[int32(rng.Intn(dg.N()))] = true
		}
		seeds := sortedKeys(seed)
		want := map[int32]bool{}
		for _, v := range seeds {
			want[v] = true
			nbrs, _ := dg.out.Row(v)
			for _, w := range nbrs {
				want[w] = true
			}
		}
		got := dg.ExpandOut(seeds)
		if !reflect.DeepEqual(got, sortedKeys(want)) {
			t.Fatalf("trial %d: frontier mismatch: got %d want %d vertices", trial, len(got), len(want))
		}
	}
	if got := dg.ExpandOut(nil); got != nil {
		t.Fatalf("empty seed: got %v", got)
	}
}
