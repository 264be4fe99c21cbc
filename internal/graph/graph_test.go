package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g := Figure7()
	if g.N != 4 || g.M != 7 {
		t.Fatalf("N=%d M=%d", g.N, g.M)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	inDeg := g.InDegrees()
	if inDeg[0] != 3 || inDeg[1] != 2 || inDeg[2] != 1 || inDeg[3] != 1 {
		t.Fatalf("in-degrees: %v", inDeg)
	}
	outDeg := g.OutDegrees()
	if outDeg[0]+outDeg[1]+outDeg[2]+outDeg[3] != 7 {
		t.Fatalf("out-degrees: %v", outDeg)
	}
	if g.AvgDegree() != 7.0/4.0 {
		t.Fatalf("avg degree %v", g.AvgDegree())
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(2, []int32{0}, []int32{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromEdges(2, []int32{0}, []int32{2}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if _, err := FromEdges(2, []int32{-1}, []int32{0}); err == nil {
		t.Fatal("negative src accepted")
	}
}

func TestCSRRowContents(t *testing.T) {
	g := Figure7()
	// Unsorted in-CSR row 0 is vertex A with in-neighbours B, C, D.
	nbrs, eids := g.In.Row(0)
	if len(nbrs) != 3 {
		t.Fatalf("row A: %v", nbrs)
	}
	want := map[int32]int32{1: 0, 2: 1, 3: 2} // nbr -> edge id
	for i, u := range nbrs {
		if want[u] != eids[i] {
			t.Fatalf("slot %d: nbr %d eid %d", i, u, eids[i])
		}
	}
	if g.In.MaxDegree() != 3 {
		t.Fatalf("max degree %d", g.In.MaxDegree())
	}
}

func TestSortByDegree(t *testing.T) {
	g := Figure7().SortByDegree()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.In.Sorted || !g.Out.Sorted {
		t.Fatal("Sorted flag not set")
	}
	// In-CSR rows must be in descending degree order.
	for k := 0; k+1 < g.In.NumRows(); k++ {
		if g.In.Degree(k) < g.In.Degree(k+1) {
			t.Fatalf("in-CSR not sorted at row %d", k)
		}
	}
	// Row 0 must be vertex A (in-degree 3).
	if g.In.RowIDs[0] != 0 {
		t.Fatalf("first sorted row is vertex %d, want 0 (A)", g.In.RowIDs[0])
	}
	// Degree sorting must preserve per-vertex neighbour sets.
	orig := Figure7()
	for k := 0; k < g.N; k++ {
		v := g.In.RowIDs[k]
		// find v's row in orig (identity layout).
		wantNbrs, _ := orig.In.Row(int(v))
		gotNbrs, _ := g.In.Row(k)
		if len(wantNbrs) != len(gotNbrs) {
			t.Fatalf("vertex %d degree changed", v)
		}
		seen := map[int32]int{}
		for _, u := range wantNbrs {
			seen[u]++
		}
		for _, u := range gotNbrs {
			seen[u]--
		}
		for u, c := range seen {
			if c != 0 {
				t.Fatalf("vertex %d neighbour multiset changed (nbr %d)", v, u)
			}
		}
	}
}

func TestEdgeTypesAndTypeSort(t *testing.T) {
	g := Figure7()
	types := []int32{2, 0, 1, 1, 0, 0, 2}
	if err := g.WithEdgeTypes(types, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Within every in-CSR row, edge types must be non-decreasing.
	for k := 0; k < g.N; k++ {
		_, eids := g.In.Row(k)
		for i := 0; i+1 < len(eids); i++ {
			if g.EdgeTypes[eids[i]] > g.EdgeTypes[eids[i+1]] {
				t.Fatalf("row %d not type-sorted: %v", k, eids)
			}
		}
	}
}

func TestEdgeTypeValidation(t *testing.T) {
	g := Figure7()
	if err := g.WithEdgeTypes([]int32{0}, 1); err == nil {
		t.Fatal("wrong-length types accepted")
	}
	if err := g.WithEdgeTypes(make([]int32, 7), 0); err == nil {
		t.Fatal("out-of-range type accepted")
	}
	if err := g.SortEdgesByType(); err == nil {
		t.Fatal("SortEdgesByType without types must fail")
	}
}

func TestTypeStorageRatio(t *testing.T) {
	g := Figure7()
	if _, err := g.TypeStorageRatio(); err == nil {
		t.Fatal("ratio without types accepted")
	}
	// All edges the same type: N_t = number of non-empty rows = 4,
	// ratio = 7/4.
	if err := g.WithEdgeTypes(make([]int32, 7), 1); err != nil {
		t.Fatal(err)
	}
	r, err := g.TypeStorageRatio()
	if err != nil || r != 7.0/4.0 {
		t.Fatalf("ratio %v err %v", r, err)
	}
	// Every edge a distinct type: N_t = M, ratio = 1.
	types := []int32{0, 1, 2, 3, 4, 5, 6}
	if err := g.WithEdgeTypes(types, 7); err != nil {
		t.Fatal(err)
	}
	if r, _ := g.TypeStorageRatio(); r != 1 {
		t.Fatalf("distinct-type ratio %v", r)
	}
}

func TestGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GNM(rng, 50, 400)
	if g.N != 50 || g.M != 400 {
		t.Fatalf("N=%d M=%d", g.N, g.M)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// No self loops, no duplicate edges.
	seen := map[[2]int32]bool{}
	for i := range g.Srcs {
		if g.Srcs[i] == g.Dsts[i] {
			t.Fatal("self loop generated")
		}
		k := [2]int32{g.Srcs[i], g.Dsts[i]}
		if seen[k] {
			t.Fatal("duplicate edge generated")
		}
		seen[k] = true
	}
}

func TestPowerLawSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := PowerLaw(rng, 2000, 8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Preferential attachment must produce a heavy tail: max in-degree
	// far above the mean.
	maxDeg := g.In.MaxDegree()
	if float64(maxDeg) < 5*g.AvgDegree() {
		t.Fatalf("max in-degree %d not skewed vs avg %.1f", maxDeg, g.AvgDegree())
	}
}

func TestStarAndPath(t *testing.T) {
	s := Star(5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.InDegrees()[0] != 4 {
		t.Fatalf("star center degree %d", s.InDegrees()[0])
	}
	p, err := FromEdges(4, []int32{0, 1, 2}, []int32{1, 2, 3}) // the chain 0→1→2→3
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	d := p.InDegrees()
	if d[0] != 0 || d[1] != 1 || d[3] != 1 {
		t.Fatalf("path degrees %v", d)
	}
}

func TestDeviceBytes(t *testing.T) {
	g := Figure7()
	base := g.DeviceBytes()
	if base <= 0 {
		t.Fatal("zero footprint")
	}
	RandomEdgeTypes(rand.New(rand.NewSource(1)), g, 3)
	if g.DeviceBytes() != base+int64(g.M)*4 {
		t.Fatal("edge-type footprint not counted")
	}
}

func TestQuickRandomGraphsValidate(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16) bool {
		n := int(nRaw%60) + 2
		maxM := n * (n - 1)
		m := int(mRaw) % (maxM + 1)
		rng := rand.New(rand.NewSource(seed))
		g := GNM(rng, n, m)
		if g.Validate() != nil {
			return false
		}
		s := g.SortByDegree()
		if s.Validate() != nil {
			return false
		}
		// Sum of in-degrees must equal M in both layouts.
		var sum int
		for k := 0; k < s.N; k++ {
			sum += s.In.Degree(k)
		}
		return sum == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomEdges draws m edges over n vertices with self-loops and repeated
// edges allowed; small n leaves rows empty.
func randomEdges(rng *rand.Rand, n, m int) (srcs, dsts []int32) {
	for i := 0; i < m; i++ {
		srcs = append(srcs, int32(rng.Intn(n)))
		dsts = append(dsts, int32(rng.Intn(n)))
	}
	return srcs, dsts
}

// comparatorSort is the degree sort as it was written before DegreeOrder:
// a stable comparison sort by descending degree, ties by row id.
func comparatorSort(c *CSR) CSR {
	n := c.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := c.Degree(order[a]), c.Degree(order[b])
		if da != db {
			return da > db
		}
		return c.RowIDs[order[a]] < c.RowIDs[order[b]]
	})
	out := CSR{Offsets: []int64{0}, Nbrs: []int32{}, EdgeIDs: []int32{}, RowIDs: []int32{}, Sorted: true}
	for _, old := range order {
		nbrs, eids := c.Row(old)
		out.Nbrs = append(out.Nbrs, nbrs...)
		out.EdgeIDs = append(out.EdgeIDs, eids...)
		out.Offsets = append(out.Offsets, int64(len(out.Nbrs)))
		out.RowIDs = append(out.RowIDs, c.RowIDs[old])
	}
	return out
}

// shuffleRows returns c with its rows in a random order: the same
// vertices and rows, non-identity RowIDs.
func shuffleRows(rng *rand.Rand, c *CSR) *CSR {
	out := &CSR{Offsets: []int64{0}, Nbrs: []int32{}, EdgeIDs: []int32{}, RowIDs: []int32{}}
	for _, k := range rng.Perm(c.NumRows()) {
		nbrs, eids := c.Row(k)
		out.Nbrs = append(out.Nbrs, nbrs...)
		out.EdgeIDs = append(out.EdgeIDs, eids...)
		out.Offsets = append(out.Offsets, int64(len(out.Nbrs)))
		out.RowIDs = append(out.RowIDs, c.RowIDs[k])
	}
	return out
}

// TestDegreeOrderProperties: FromInEdges with one level is
// FromEdges().SortByDegree() without the out-CSR, with levels each
// level's rows follow the levels before it in that level's DegreeOrder,
// and SortByDegree's counting sort puts rows where the comparison sort
// did, also when the rows it starts from are permuted. Covers n = 0,
// m = 0, empty rows, empty levels, self-loops and repeated edges.
func TestDegreeOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		m := 0
		if n > 0 && trial%7 != 0 {
			m = rng.Intn(4 * n)
		}
		srcs, dsts := randomEdges(rng, n, m)
		g, err := FromEdges(n, srcs, dsts)
		if err != nil {
			t.Fatal(err)
		}
		want := g.SortByDegree()
		want.Out = CSR{}
		got, err := FromInEdges(n, slices.Clone(srcs), slices.Clone(dsts), []int{n})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d: FromInEdges differs from FromEdges().SortByDegree()", n, m)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.OutDegrees(), g.OutDegrees()) {
			t.Fatalf("n=%d m=%d: out-degrees from the edge list %v, from the out-CSR %v", n, m, got.OutDegrees(), g.OutDegrees())
		}
		for _, c := range []*CSR{&g.In, &g.Out, &want.In, shuffleRows(rng, &g.In), shuffleRows(rng, &g.SortByDegree().Out)} {
			if got, want := sortCSRByDegree(c), comparatorSort(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d m=%d: counting sort %v, comparison sort %v", n, m, got.RowIDs, want.RowIDs)
			}
		}

		var levels []int
		for lo := 0; lo < n; {
			lo += rng.Intn(n - lo + 1)
			levels = append(levels, lo)
		}
		levels = append(levels, n)
		lv, err := FromInEdges(n, slices.Clone(srcs), slices.Clone(dsts), levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := lv.Validate(); err != nil {
			t.Fatalf("n=%d levels %v: %v", n, levels, err)
		}
		deg := g.InDegrees()
		lo := 0
		for _, hi := range levels {
			order := DegreeOrder(deg[lo:hi])
			for k, v := range order {
				if lv.In.RowIDs[lo+k] != int32(lo)+v {
					t.Fatalf("n=%d levels %v: rows %v, want level [%d,%d) in degree order %v", n, levels, lv.In.RowIDs, lo, hi, order)
				}
			}
			lo = hi
		}
		// Each row keeps its slots in edge-id order, whatever the levels.
		for k := 0; k < lv.In.NumRows(); k++ {
			if _, eids := lv.In.Row(k); !slices.IsSorted(eids) {
				t.Fatalf("n=%d levels %v: row %d slots %v out of edge-id order", n, levels, k, eids)
			}
		}
	}
	if _, err := FromInEdges(2, []int32{0}, []int32{2}, []int{2}); err == nil {
		t.Fatal("FromInEdges accepted an out-of-range edge")
	}
	for _, levels := range [][]int{nil, {1}, {2, 1, 3}, {1, 4}} {
		if _, err := FromInEdges(3, []int32{0}, []int32{1}, levels); err == nil {
			t.Errorf("FromInEdges accepted levels %v over 3 vertices", levels)
		}
	}
}

func TestQuickTypeSortPreservesEdgeSets(t *testing.T) {
	f := func(seed int64, nRaw uint8, tRaw uint8) bool {
		n := int(nRaw%30) + 2
		nt := int(tRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		g := GNM(rng, n, n*2%(n*(n-1)/2+1)+1)
		RandomEdgeTypes(rng, g, nt)
		before := map[int32]int32{}
		for e := 0; e < g.M; e++ {
			before[int32(e)] = g.EdgeTypes[e]
		}
		if g.SortEdgesByType() != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		// Edge ids and types unchanged globally.
		for e := 0; e < g.M; e++ {
			if before[int32(e)] != g.EdgeTypes[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDstPrefix pins the block view: a prefix that holds every edge cuts
// the in-CSR and keeps everything else, one that holds some of them cuts
// the edges and sources too, and a prefix that is not exact is refused
// rather than truncated. Vertex 1 has no in-edge, so it sorts among the
// zero-degree rows, ahead of 3..5 by its smaller id.
func TestDstPrefix(t *testing.T) {
	srcs := []int32{3, 4, 5, 0, 2}
	dsts := []int32{0, 0, 2, 2, 0}
	g := mustFromEdges(t, 6, srcs, dsts).SortByDegree()
	if err := g.WithEdgeTypes([]int32{0, 1, 1, 0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	b, err := g.DstPrefix(3, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("block: %v", err)
	}
	if b.In.NumRows() != 3 || b.N != g.N || b.M != g.M || &b.Out.Offsets[0] != &g.Out.Offsets[0] {
		t.Fatalf("block has %d in-rows, N=%d M=%d; want 3 rows over g's vertices, edges and out-CSR", b.In.NumRows(), b.N, b.M)
	}
	if &b.EdgeTypes[0] != &g.EdgeTypes[0] || b.NumEdgeTypes != 2 {
		t.Fatal("block dropped g's edge types")
	}
	if !reflect.DeepEqual(b.InDegrees(), g.InDegrees()) || !reflect.DeepEqual(b.OutDegrees(), g.OutDegrees()) {
		t.Fatalf("degrees: block in %v out %v, graph in %v out %v", b.InDegrees(), b.OutDegrees(), g.InDegrees(), g.OutDegrees())
	}
	rb, err := b.TypeStorageRatio()
	if err != nil {
		t.Fatal(err)
	}
	if rg, _ := g.TypeStorageRatio(); rb != rg {
		t.Fatalf("type storage ratio %v on the block, %v on the graph", rb, rg)
	}
	if full, err := g.DstPrefix(g.N, g.N); err != nil || full.In.NumRows() != g.N || full.Validate() != nil {
		t.Fatalf("the whole graph as its own prefix: %v", err)
	}
	// The block's in-CSR alone, as a shard fragment or a delta frontier is
	// built, is a valid block; counting its destinations in N is not, for
	// its neighbour ids name sources past them.
	inOnly := Graph{N: b.N, M: b.M, NumEdgeTypes: 1, In: b.In}
	if err := inOnly.Validate(); err != nil {
		t.Fatalf("in-only block: %v", err)
	}
	inOnly.N = b.In.NumRows()
	if err := inOnly.Validate(); err == nil {
		t.Error("Validate accepted a block whose N counts its destinations")
	}

	// Hops as a sampler numbers them: seed 0; 1 and 2 one hop out, their
	// edges 0 and 1; 3 two hops out, edges 2..4 entering 1 and 2.
	hop, err := FromInEdges(4, []int32{1, 2, 3, 0, 3}, []int32{0, 0, 1, 2, 2}, []int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := hop.DstPrefix(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeds.Validate(); err != nil {
		t.Fatalf("seed block: %v", err)
	}
	if seeds.In.NumRows() != 1 || seeds.N != 3 || seeds.M != 2 || len(seeds.Srcs) != 2 || seeds.Out.Offsets != nil {
		t.Fatalf("seed block has %d in-rows, N=%d M=%d, %d listed edges; want 1 row over 3 sources, 2 edges", seeds.In.NumRows(), seeds.N, seeds.M, len(seeds.Srcs))
	}
	if out := seeds.OutDegrees(); !slices.Equal(out, []int32{0, 1, 1}) {
		t.Fatalf("seed block out-degrees %v", out)
	}

	for _, tc := range []struct {
		name string
		g    *Graph
		d, n int
	}{
		{"misses an edge", g, 1, g.N},          // row 0 is vertex 0 with edge 4, but edges 2 and 3 enter vertex 2
		{"holds a later vertex", g, 2, g.N},    // rows 0, 1 are vertices 0 and 2
		{"past the rows", g, g.N + 1, g.N},     // no such row
		{"too few sources", g, 3, 3},           // vertices 3..5 send edges into the prefix
		{"fewer sources than rows", hop, 3, 2}, // a destination is a source too
		{"unsorted", mustFromEdges(t, 6, srcs, dsts), 3, 6},
		{"past a hop's sources", hop, 1, 2}, // vertex 2 sends edge 1
	} {
		if _, err := tc.g.DstPrefix(tc.d, tc.n); err == nil {
			t.Errorf("%s: DstPrefix(%d, %d) accepted", tc.name, tc.d, tc.n)
		}
	}

	// Validate refuses an in-CSR cut short of an edge, and one whose rows
	// hold every edge but a vertex past the prefix (vertex 2 of 2 rows).
	for _, rows := range []int{1, 2} {
		bad := *g
		bad.In.Offsets, bad.In.RowIDs = g.In.Offsets[:rows+1], g.In.RowIDs[:rows]
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted the in-CSR cut to %d rows", rows)
		}
	}
}

func mustFromEdges(t *testing.T, n int, srcs, dsts []int32) *Graph {
	t.Helper()
	g, err := FromEdges(n, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
