package part

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seastar/internal/graph"
)

func zipfGraph(t testing.TB, n, deg int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return graph.ZipfDegree(rng, n, deg, 1.0)
}

// checkInvariants asserts the vertex-cut contract on one partition:
// masters cover every vertex exactly once, every edge lands in exactly
// the fragment owning its destination with its full-graph neighbour
// order preserved, exchange tables pair element-for-element, and the
// replication factor stays within [1, k].
func checkInvariants(t *testing.T, g *graph.Graph, p *Partition) {
	t.Helper()
	k := p.K

	// Masters cover all vertices, consistently with Owner.
	seen := make([]int, g.N)
	totalOwned := 0
	for s, f := range p.Frags {
		if f.Owned > len(f.Locals) {
			t.Fatalf("shard %d: owned %d > locals %d", s, f.Owned, len(f.Locals))
		}
		totalOwned += f.Owned
		for l, v := range f.Locals {
			if f.LocalOf[v]-1 != int32(l) {
				t.Fatalf("shard %d: LocalOf[%d]=%d, want %d", s, v, f.LocalOf[v]-1, l)
			}
			if l < f.Owned {
				seen[v]++
				if p.Owner[v] != int32(s) {
					t.Fatalf("shard %d owns vertex %d but Owner says %d", s, v, p.Owner[v])
				}
			} else if p.Owner[v] == int32(s) {
				t.Fatalf("shard %d mirrors its own vertex %d", s, v)
			}
		}
	}
	if totalOwned != g.N {
		t.Fatalf("masters cover %d of %d vertices", totalOwned, g.N)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d mastered %d times", v, c)
		}
	}

	// Every edge in exactly one fragment: each fragment's graph is a
	// block, the in-CSR of its owned rows over its locals and nothing else,
	// degree-sorted, each row read through RowIDs holding the complete
	// in-edge row of its vertex, in full-graph order, with local neighbour
	// ids.
	rowOf := invertRowIDs(g.In.RowIDs)
	totalEdges := 0
	for s, f := range p.Frags {
		fg := f.G
		if fg.N != len(f.Locals) || fg.In.NumRows() != f.Owned || !fg.In.Sorted ||
			!reflect.DeepEqual(fg.Out, graph.CSR{}) || fg.Srcs != nil || fg.Dsts != nil {
			t.Fatalf("shard %d: graph N=%d with %d in-rows, sorted=%v, out-CSR or edge list present; want the %d owned rows' sorted in-CSR over %d locals alone",
				s, fg.N, fg.In.NumRows(), fg.In.Sorted, f.Owned, len(f.Locals))
		}
		if err := fg.Validate(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		ids := make([]int32, f.Owned)
		for l := range ids {
			ids[l] = int32(l)
		}
		rows := slices.Clone(fg.In.RowIDs)
		slices.Sort(rows)
		if !slices.Equal(rows, ids) {
			t.Fatalf("shard %d: RowIDs are not a permutation of [0, %d)", s, f.Owned)
		}
		totalEdges += fg.M
		for k := 0; k < fg.In.NumRows(); k++ {
			l := fg.In.RowIDs[k]
			if k > 0 {
				prev, cur := fg.In.Degree(k-1), fg.In.Degree(k)
				if prev < cur || prev == cur && fg.In.RowIDs[k-1] > l {
					t.Fatalf("shard %d: rows %d and %d not in descending degree, ties by local id", s, k-1, k)
				}
			}
			nbrs := fg.In.Row(k)
			v := f.Locals[l]
			wantNbrs := g.In.Row(int(rowOf[v]))
			if len(nbrs) != len(wantNbrs) {
				t.Fatalf("shard %d vertex %d: %d in-edges, full graph has %d",
					s, v, len(nbrs), len(wantNbrs))
			}
			for i, lu := range nbrs {
				if got := f.Locals[lu]; got != wantNbrs[i] {
					t.Fatalf("shard %d vertex %d slot %d: neighbour %d, full graph has %d (order broken)",
						s, v, i, got, wantNbrs[i])
				}
			}
		}
	}
	if totalEdges != g.M {
		t.Fatalf("fragments hold %d edges, graph has %d", totalEdges, g.M)
	}

	// Exchange tables pair: fragment s's ExportTo[t] and fragment t's
	// ImportFrom[s] name the same global vertices in the same order.
	flows := 0
	for s, fs := range p.Frags {
		for tt := 0; tt < k; tt++ {
			exp := fs.ExportTo[tt]
			imp := p.Frags[tt].ImportFrom[s]
			if len(exp) != len(imp) {
				t.Fatalf("export %d→%d: %d rows exported, %d imported", s, tt, len(exp), len(imp))
			}
			flows += len(exp)
			for i := range exp {
				if int(exp[i]) >= fs.Owned {
					t.Fatalf("shard %d exports non-owned row %d", s, exp[i])
				}
				gu := fs.Locals[exp[i]]
				if got := p.Frags[tt].Locals[imp[i]]; got != gu {
					t.Fatalf("export %d→%d slot %d: exports vertex %d, imports %d", s, tt, i, gu, got)
				}
			}
		}
	}
	if flows != p.Stats.MirrorFlows {
		t.Fatalf("stats claim %d mirror flows, tables hold %d", p.Stats.MirrorFlows, flows)
	}

	// Replication factor bounded: 1 ≤ r ≤ k.
	if p.Stats.Replication < 1 || p.Stats.Replication > float64(k) {
		t.Fatalf("replication %.3f outside [1, %d]", p.Stats.Replication, k)
	}

	// Degrees carried per local row are the full graph's.
	inDeg := g.InDegrees()
	outDeg := g.OutDegrees()
	for s, f := range p.Frags {
		for l, v := range f.Locals {
			if f.GlobalInDeg[l] != inDeg[v] || f.GlobalOutDeg[l] != outDeg[v] {
				t.Fatalf("shard %d vertex %d: degrees (%d,%d), want (%d,%d)",
					s, v, f.GlobalInDeg[l], f.GlobalOutDeg[l], inDeg[v], outDeg[v])
			}
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	g := zipfGraph(t, 3000, 8, 11)
	for _, mode := range []string{"greedy", "range"} {
		for _, k := range []int{1, 2, 4, 7} {
			p, err := Build(g, k, mode)
			if err != nil {
				t.Fatalf("%s k=%d: %v", mode, k, err)
			}
			checkInvariants(t, g, p)
			if k == 1 {
				if p.Stats.MirrorFlows != 0 || p.Stats.Replication != 1 {
					t.Fatalf("%s k=1: flows=%d repl=%.2f, want no mirrors",
						mode, p.Stats.MirrorFlows, p.Stats.Replication)
				}
			}
		}
	}
}

// TestGreedyBalance checks the greedy placer respects the edge-unit
// capacity: no shard exceeds the slack-adjusted fair share by more than
// a hub row's worth.
func TestGreedyBalance(t *testing.T) {
	g := zipfGraph(t, 20000, 8, 7)
	p, err := Build(g, 4, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, p)
	if p.Stats.Balance > 1.25 {
		t.Fatalf("greedy balance %.3f > 1.25 (max %.0f units, min %.0f)",
			p.Stats.Balance, p.Stats.MaxShardUnits, p.Stats.MinShardUnits)
	}
	// Greedy should beat the locality-free range split on mirror flows.
	r, err := Build(g, 4, "range")
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.EdgeCutRatio > r.Stats.EdgeCutRatio*1.05 {
		t.Fatalf("greedy cut %.3f worse than range cut %.3f",
			p.Stats.EdgeCutRatio, r.Stats.EdgeCutRatio)
	}
}

// TestPartitionDeterministic checks that the partition is a function of
// (graph, k, mode), and that the pieces a process builds alone — the owner
// table (Owners) and one fragment (NewFragment) — are field for field the
// ones Build assembles, which is what lets a worker build only its own
// fragment and the coordinator none.
func TestPartitionDeterministic(t *testing.T) {
	g := zipfGraph(t, 5000, 8, 3)
	for _, mode := range []string{"greedy", "range"} {
		for _, k := range []int{1, 2, 3, 4} {
			a, err := Build(g, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(g, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s k=%d: identical builds differ", mode, k)
			}
			checkPieces(t, g, a)
		}
	}
}

// checkPieces asserts Owners ≡ p.Owner and NewFragment(…, s) ≡ p.Frags[s],
// the latter also over g.SortByDegree(): a fragment takes its neighbour
// order from the in-CSR rows, which sorting moves but does not reorder,
// never from the edge list.
func checkPieces(t *testing.T, g *graph.Graph, p *Partition) {
	t.Helper()
	owner, err := Owners(g, p.K, p.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(owner, p.Owner) {
		t.Fatalf("%s k=%d: Owners differs from Build's owner table", p.Mode, p.K)
	}
	flows := Flows(g, owner, p.K)
	sorted := g.SortByDegree()
	for s := range p.K {
		if f := NewFragment(g, owner, p.K, s); !reflect.DeepEqual(f, p.Frags[s]) {
			t.Fatalf("%s k=%d: NewFragment(%d) differs from Build's fragment", p.Mode, p.K, s)
		}
		if f := NewFragment(sorted, owner, p.K, s); !reflect.DeepEqual(f, p.Frags[s]) {
			t.Fatalf("%s k=%d: NewFragment(%d) over the degree-sorted graph differs", p.Mode, p.K, s)
		}
		for tt, rows := range flows[s] {
			if rows != len(p.Frags[s].ExportTo[tt]) {
				t.Fatalf("%s k=%d: Flows says %d→%d moves %d rows, ExportTo holds %d", p.Mode, p.K, s, tt, rows, len(p.Frags[s].ExportTo[tt]))
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := zipfGraph(t, 100, 4, 1)
	if _, err := Build(nil, 2, "greedy"); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Build(g, 0, "greedy"); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Build(g, 101, "greedy"); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Build(g, 2, "bogus"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// FuzzPartitionInvariants drives Build over random edge lists and shard
// counts, asserting the full vertex-cut contract each time.
func FuzzPartitionInvariants(f *testing.F) {
	f.Add(int64(1), 50, 200, 2)
	f.Add(int64(2), 3, 1, 3)
	f.Add(int64(3), 200, 1000, 5)
	f.Fuzz(func(t *testing.T, seed int64, n, m, k int) {
		if n < 1 || n > 500 || m < 0 || m > 5000 || k < 1 {
			t.Skip()
		}
		k = k%8 + 1
		if k > n {
			k = n
		}
		rng := rand.New(rand.NewSource(seed))
		srcs := make([]int32, m)
		dsts := make([]int32, m)
		for i := 0; i < m; i++ {
			srcs[i] = int32(rng.Intn(n))
			dsts[i] = int32(rng.Intn(n))
		}
		g, err := graph.FromEdges(n, srcs, dsts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"greedy", "range"} {
			p, err := Build(g, k, mode)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			checkInvariants(t, g, p)
			checkPieces(t, g, p)
		}
	})
}
