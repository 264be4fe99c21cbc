package graph_test

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/part"
)

// edgeList is a constructor's input: edge i is srcs[i]→dsts[i] of type
// types[i] (types nil when homogeneous).
type edgeList struct {
	n                 int
	srcs, dsts, types []int32
}

// rowsWant returns, per vertex, the other endpoints and types of its
// in-edges (in=true) or out-edges in list order, each row stably sorted
// by type when byType is set: what every constructor's rows must hold.
func (l edgeList) rowsWant(in, byType bool) (nbrs, types [][]int32) {
	nbrs, types = make([][]int32, l.n), make([][]int32, l.n)
	idx := make([][]int, l.n)
	for i := range l.srcs {
		row := l.srcs[i]
		if in {
			row = l.dsts[i]
		}
		idx[row] = append(idx[row], i)
	}
	for v, is := range idx {
		if byType {
			slices.SortStableFunc(is, func(a, b int) int { return cmp.Compare(l.types[a], l.types[b]) })
		}
		for _, i := range is {
			if in {
				nbrs[v] = append(nbrs[v], l.srcs[i])
			} else {
				nbrs[v] = append(nbrs[v], l.dsts[i])
			}
			if l.types != nil {
				types[v] = append(types[v], l.types[i])
			}
		}
	}
	return nbrs, types
}

// checkNumbering checks g against the list it was built from: Validate
// (one numbering: slots are ids, the out-CSR's ids name the same pairs),
// every in-row's neighbours in list order — their types with them — and,
// when g has an out-CSR, every out-row's in list order, also by type
// after a type sort.
func checkNumbering(t *testing.T, name string, g *graph.Graph, l edgeList, byType bool) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	inWant, typeWant := l.rowsWant(true, byType)
	for k, v := range g.In.RowIDs {
		if got := g.In.Row(k); !slices.Equal(got, inWant[v]) && len(got)+len(inWant[v]) > 0 {
			t.Fatalf("%s: vertex %d in-row %v, list order %v", name, v, got, inWant[v])
		}
		if l.types != nil {
			if got := g.EdgeTypes[g.In.Offsets[k]:g.In.Offsets[k+1]]; !slices.Equal(got, typeWant[v]) && len(got) > 0 {
				t.Fatalf("%s: vertex %d in-row types %v, list %v", name, v, got, typeWant[v])
			}
		}
	}
	if g.Out.Offsets == nil {
		return
	}
	outWant, _ := l.rowsWant(false, byType)
	for k, u := range g.Out.RowIDs {
		if got := g.Out.Row(k); !slices.Equal(got, outWant[u]) && len(got)+len(outWant[u]) > 0 {
			t.Fatalf("%s: vertex %d out-row %v, list order %v", name, u, got, outWant[u])
		}
	}
}

// listOf returns g's edge list in edge-id order.
func listOf(g *graph.Graph) edgeList {
	return edgeList{n: g.N, srcs: slices.Clone(g.Srcs), dsts: slices.Clone(g.Dsts), types: slices.Clone(g.EdgeTypes)}
}

// TestEdgeNumberingProperties runs every constructor that builds an
// in-CSR over random edge lists — self loops, repeated edges, empty rows —
// and checks that each numbers its edges by in-CSR slot without
// reordering a row: FromEdges, FromTypedEdges, SortByDegree,
// SortEdgesByType, FromInEdges (one level and hop-like levels),
// DeltaGraph.Flatten after a delta, a ReadGraph round trip and the owned
// in-CSRs of partition fragments.
func TestEdgeNumberingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(30)
		m := rng.Intn(5 * n)
		l := edgeList{n: n}
		for i := 0; i < m; i++ {
			l.srcs = append(l.srcs, int32(rng.Intn(n)))
			l.dsts = append(l.dsts, int32(rng.Intn(n)))
		}
		g, err := graph.FromEdges(n, l.srcs, l.dsts)
		if err != nil {
			t.Fatal(err)
		}
		checkNumbering(t, "FromEdges", g, l, false)
		checkNumbering(t, "SortByDegree", g.SortByDegree(), l, false)

		levels := []int{n}
		if n > 2 {
			levels = []int{rng.Intn(n / 2), n/2 + rng.Intn(n/2), n}
		}
		for _, lv := range [][]int{{n}, levels} {
			h, err := graph.FromInEdges(n, l.srcs, l.dsts, lv)
			if err != nil {
				t.Fatal(err)
			}
			checkNumbering(t, "FromInEdges", h, l, false)
		}

		// ReadGraph renumbers the list WriteTo stored, g's edge list.
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := graph.ReadGraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkNumbering(t, "ReadGraph", r, listOf(g), false)

		// A delta's canonical list: the parent's edges in id order minus
		// the removed pairs, then the additions.
		dg, err := graph.FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		d := &graph.Delta{}
		gone := map[graph.Edge]bool{}
		if m > 0 {
			e := rng.Intn(m)
			rm := graph.Edge{Src: g.Srcs[e], Dst: g.Dsts[e]}
			d.RemoveEdges, gone[rm] = []graph.Edge{rm}, true
		}
		for k := rng.Intn(4); k > 0; k-- {
			d.AddEdges = append(d.AddEdges, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))})
		}
		child, _, err := dg.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		canon := edgeList{n: n}
		for e := range g.Srcs {
			if !gone[graph.Edge{Src: g.Srcs[e], Dst: g.Dsts[e]}] {
				canon.srcs, canon.dsts = append(canon.srcs, g.Srcs[e]), append(canon.dsts, g.Dsts[e])
			}
		}
		for _, e := range d.AddEdges {
			canon.srcs, canon.dsts = append(canon.srcs, e.Src), append(canon.dsts, e.Dst)
		}
		checkNumbering(t, "Flatten", child.Flatten(), canon, false)

		// Fragments keep each owned row's in-neighbours in order.
		k := 1 + rng.Intn(3)
		owner := make([]int32, n)
		for v := range owner {
			owner[v] = int32(rng.Intn(k))
		}
		src := g.SortByDegree()
		inWant, _ := l.rowsWant(true, false)
		for s := 0; s < k; s++ {
			f := part.NewFragment(src, owner, k, s)
			if err := f.G.Validate(); err != nil {
				t.Fatalf("fragment %d: %v", s, err)
			}
			for r, lv := range f.G.In.RowIDs {
				v := f.Locals[lv]
				var got []int32
				for _, lu := range f.G.In.Row(r) {
					got = append(got, f.Locals[lu])
				}
				if !slices.Equal(got, inWant[v]) && len(got)+len(inWant[v]) > 0 {
					t.Fatalf("fragment %d: vertex %d in-row %v, list order %v", s, v, got, inWant[v])
				}
			}
		}

		// FromTypedEdges takes types in list order and moves them with
		// their edges; WithEdgeTypes takes them in edge-id order.
		nt := 1 + rng.Intn(4)
		l.types = graph.RandomTypes(rng, m, nt)
		if err := g.WithEdgeTypes(l.types, nt); err != nil || !slices.Equal(g.EdgeTypes, l.types) {
			t.Fatalf("WithEdgeTypes: types %v for %v (%v)", g.EdgeTypes, l.types, err)
		}
		if g, err = graph.FromTypedEdges(n, l.srcs, l.dsts, l.types, nt); err != nil {
			t.Fatal(err)
		}
		checkNumbering(t, "FromTypedEdges", g, l, false)
		checkNumbering(t, "SortByDegree typed", g.SortByDegree(), l, false)
		if err := g.SortEdgesByType(); err != nil {
			t.Fatal(err)
		}
		checkNumbering(t, "SortEdgesByType", g, l, true)
		checkNumbering(t, "SortEdgesByType+SortByDegree", g.SortByDegree(), l, true)
	}
}
