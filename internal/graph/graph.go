// Package graph implements the graph and data representation of Seastar
// (paper §6.1): Compressed Sparse Row storage for in-edges plus a reverse
// CSR for the backward pass, both with explicit edge-id arrays; optional
// descending-degree row sorting for the kernel-level load-balancing
// optimizations (§6.3.3); and a secondary per-row sort on edge type for
// heterogeneous models (§6.3.5).
//
// N counts the vertex rows a neighbour id may name (the sources); the
// in-CSR has one row per destination, the vertices [0, D) with D ≤ N.
// Usually D == N. A block has D < N: a sampled batch's per-stage
// DstPrefix, a shard fragment's owned rows over its locals
// (internal/part), a delta's dirty rows over the whole graph
// (internal/serve). A graph a forward pass alone walks may have no
// out-CSR (a sampled batch, FromInEdges) and no edge list either (the
// last two). The compiled program's D-typed tensors have D rows
// (internal/exec).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// CSR stores one direction of a graph's adjacency.
//
// Row k describes vertex RowIDs[k] (identity when unsorted). The
// neighbours of that vertex occupy slots Offsets[k]..Offsets[k+1] of Nbrs,
// and EdgeIDs holds the global edge id of each slot so edge-wise (E-type)
// tensors can be addressed from either direction — the paper keeps a
// separate edge-id array precisely because the reverse CSR invalidates the
// slot-index↔edge-id mapping (§6.3.4).
type CSR struct {
	Offsets []int64
	Nbrs    []int32
	EdgeIDs []int32
	RowIDs  []int32
	// Sorted records whether rows are in descending degree order: over
	// all rows, or level by level in a graph FromInEdges built.
	Sorted bool
}

// NumRows returns the number of rows (vertices).
func (c *CSR) NumRows() int { return len(c.Offsets) - 1 }

// Degree returns the number of neighbours stored in row k.
func (c *CSR) Degree(k int) int { return int(c.Offsets[k+1] - c.Offsets[k]) }

// Row returns the neighbour and edge-id slices of row k.
func (c *CSR) Row(k int) (nbrs, eids []int32) {
	lo, hi := c.Offsets[k], c.Offsets[k+1]
	return c.Nbrs[lo:hi], c.EdgeIDs[lo:hi]
}

// MaxDegree returns the largest row degree.
func (c *CSR) MaxDegree() int {
	m := 0
	for k := 0; k < c.NumRows(); k++ {
		if d := c.Degree(k); d > m {
			m = d
		}
	}
	return m
}

// Bytes returns the device-memory footprint of the CSR arrays.
func (c *CSR) Bytes() int64 {
	return int64(len(c.Offsets))*8 + int64(len(c.Nbrs))*4 + int64(len(c.EdgeIDs))*4 + int64(len(c.RowIDs))*4
}

// Graph couples the in-CSR (used by the forward pass, which aggregates
// in-neighbours at each destination) with the out-CSR (used by the
// backward pass) and optional edge types.
type Graph struct {
	N int // number of vertices a neighbour id may name (the sources)
	M int // number of edges

	// In is the in-edge CSR: row v lists u for every edge u→v.
	In CSR
	// Out is the out-edge CSR: row u lists v for every edge u→v.
	Out CSR

	// EdgeTypes maps global edge id to relation type; nil when the graph
	// is homogeneous.
	EdgeTypes    []int32
	NumEdgeTypes int

	// Srcs and Dsts are the original edge list indexed by edge id.
	Srcs, Dsts []int32
}

// FromEdges builds a graph over n vertices from parallel src/dst arrays.
// Edge i gets global edge id i. Both CSRs are built unsorted (RowIDs =
// identity).
func FromEdges(n int, srcs, dsts []int32) (*Graph, error) {
	if err := checkEdges(n, srcs, dsts); err != nil {
		return nil, err
	}
	g := &Graph{
		N: n, M: len(srcs),
		Srcs: append([]int32(nil), srcs...),
		Dsts: append([]int32(nil), dsts...),
		In:   buildCSR(n, dsts, srcs, nil),
		Out:  buildCSR(n, srcs, dsts, nil),
	}
	g.NumEdgeTypes = 1
	return g, nil
}

// checkEdges validates an edge list over n vertices.
func checkEdges(n int, srcs, dsts []int32) error {
	if len(srcs) != len(dsts) {
		return fmt.Errorf("graph: %d srcs vs %d dsts", len(srcs), len(dsts))
	}
	for i := range srcs {
		if srcs[i] < 0 || int(srcs[i]) >= n || dsts[i] < 0 || int(dsts[i]) >= n {
			return fmt.Errorf("graph: edge %d (%d→%d) out of range [0,%d)", i, srcs[i], dsts[i], n)
		}
	}
	return nil
}

// buildCSR groups edges by their "row" endpoint (counting sort), each
// row's slots in edge-id order. Rows are in vertex order without levels;
// with levels, the ends of consecutive vertex-id ranges (the last one n),
// each range's rows come in DegreeOrder after those of the ranges before.
func buildCSR(n int, rowOf, nbrOf []int32, levels []int) CSR {
	deg := make([]int32, n)
	for _, r := range rowOf {
		deg[r]++
	}
	rowIDs := make([]int32, n)
	if levels == nil {
		for i := range rowIDs {
			rowIDs[i] = int32(i)
		}
	} else {
		var start []int32 // one counting-sort table, reused by every level
		lo := 0
		for _, hi := range levels {
			start = degreeOrder(rowIDs[lo:hi], deg[lo:hi], int32(lo), start)
			lo = hi
		}
	}
	offsets := make([]int64, n+1)
	cursor := make([]int64, n) // by vertex: its next free slot
	for k, v := range rowIDs {
		cursor[v] = offsets[k]
		offsets[k+1] = offsets[k] + int64(deg[v])
	}
	nbrs := make([]int32, len(rowOf))
	eids := make([]int32, len(rowOf))
	for e, r := range rowOf {
		p := cursor[r]
		cursor[r]++
		nbrs[p] = nbrOf[e]
		eids[p] = int32(e)
	}
	return CSR{Offsets: offsets, Nbrs: nbrs, EdgeIDs: eids, RowIDs: rowIDs, Sorted: levels != nil}
}

// WithEdgeTypes attaches a relation type to every edge. Types must be in
// [0, numTypes).
func (g *Graph) WithEdgeTypes(types []int32, numTypes int) error {
	if len(types) != g.M {
		return fmt.Errorf("graph: %d edge types for %d edges", len(types), g.M)
	}
	for i, t := range types {
		if t < 0 || int(t) >= numTypes {
			return fmt.Errorf("graph: edge %d type %d out of range [0,%d)", i, t, numTypes)
		}
	}
	g.EdgeTypes = append([]int32(nil), types...)
	g.NumEdgeTypes = numTypes
	return nil
}

// InDegrees returns the in-degree of every vertex; a block's vertices
// past its in-CSR rows have none.
func (g *Graph) InDegrees() []int32 {
	d := make([]int32, g.N)
	for k := 0; k < g.In.NumRows(); k++ {
		d[g.In.RowIDs[k]] = int32(g.In.Degree(k))
	}
	return d
}

// OutDegrees returns the out-degree of every vertex, counted from the
// edge list when g has no out-CSR.
func (g *Graph) OutDegrees() []int32 {
	d := make([]int32, g.N)
	if g.Out.Offsets == nil {
		for _, u := range g.Srcs {
			d[u]++
		}
		return d
	}
	for v := 0; v < g.N; v++ {
		d[g.Out.RowIDs[v]] = int32(g.Out.Degree(v))
	}
	return d
}

// AvgDegree returns M/N.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.M) / float64(g.N)
}

// DeviceBytes returns the device-memory footprint of the graph structure
// (both CSRs plus the edge-type array when present), as moved to the GPU
// at program start (§6.1).
func (g *Graph) DeviceBytes() int64 {
	b := g.In.Bytes() + g.Out.Bytes()
	if g.EdgeTypes != nil {
		b += int64(len(g.EdgeTypes)) * 4
	}
	return b
}

// SortByDegree returns a copy of g whose CSR rows are reordered in
// descending degree (in-degree for In, out-degree for Out), the
// preprocessing required by the paper's dynamic load balancing (§6.3.3).
// Edge ids and neighbour ids are unchanged; only row order moves. A graph
// without an out-CSR stays without one.
func (g *Graph) SortByDegree() *Graph {
	out := &Graph{
		N: g.N, M: g.M,
		Srcs: g.Srcs, Dsts: g.Dsts,
		EdgeTypes: g.EdgeTypes, NumEdgeTypes: g.NumEdgeTypes,
		In: sortCSRByDegree(&g.In),
	}
	if g.Out.Offsets != nil {
		out.Out = sortCSRByDegree(&g.Out)
	}
	return out
}

// FromInEdges builds the in-only graph of an edge list over n vertices:
// its in-CSR, built straight into level-by-level degree order (buildCSR),
// and no out-CSR — a forward pass walks none, and OutDegrees counts the
// edge list. levels are the ends of consecutive vertex-id ranges, the last
// one n; with levels {n} the in-CSR is FromEdges(n, srcs, dsts).
// SortByDegree()'s. A sampled batch passes its hop boundaries, so the
// vertices within k hops are the first rows and their in-edges the first
// slots: every stage's block is a DstPrefix (internal/sampling). The graph
// takes ownership of srcs and dsts as its edge list.
func FromInEdges(n int, srcs, dsts []int32, levels []int) (*Graph, error) {
	if err := checkEdges(n, srcs, dsts); err != nil {
		return nil, err
	}
	if len(levels) == 0 || levels[0] < 0 || levels[len(levels)-1] != n || !slices.IsSorted(levels) {
		return nil, fmt.Errorf("graph: levels %v are not ascending range ends up to %d", levels, n)
	}
	return &Graph{
		N: n, M: len(srcs), NumEdgeTypes: 1,
		Srcs: srcs, Dsts: dsts,
		In: buildCSR(n, dsts, srcs, levels),
	}, nil
}

// DstPrefix returns the block of g's first d destinations over its first
// n vertices: a view sharing g's arrays whose in-CSR is cut to its first d
// rows, whose edges (M, the edge list, edge types) are those rows' slots,
// and whose N is n. It keeps g's out-CSR only when nothing but rows is
// cut (all edges, N unchanged). It is exact, not a truncation: it
// succeeds only when g's in-CSR is degree-sorted, its first d rows hold
// the vertices [0, d), their slots hold the edges [0, M) and every
// neighbour is below n. A sampled batch numbers vertices and edges hop by
// hop and sorts its in-CSR hop-major (FromInEdges), so the vertices
// within k hops are such a prefix with those within k+1 hops as sources.
// The check costs O(d + M).
func (g *Graph) DstPrefix(d, n int) (*Graph, error) {
	if d < 0 || d > g.In.NumRows() {
		return nil, fmt.Errorf("graph: destination prefix %d outside the %d-row in-CSR", d, g.In.NumRows())
	}
	if n < d || n > g.N {
		return nil, fmt.Errorf("graph: %d sources for %d destinations of %d vertices", n, d, g.N)
	}
	if !g.In.Sorted {
		return nil, fmt.Errorf("graph: destination prefix needs a degree-sorted in-CSR")
	}
	for k, v := range g.In.RowIDs[:d] {
		if int(v) >= d {
			return nil, fmt.Errorf("graph: in-CSR row %d holds vertex %d, past the first %d", k, v, d)
		}
	}
	m := g.In.Offsets[d]
	for i, e := range g.In.EdgeIDs[:m] {
		if int64(e) >= m {
			return nil, fmt.Errorf("graph: the first %d rows hold edge %d, past their %d slots", d, e, m)
		}
		if u := g.In.Nbrs[i]; int(u) >= n {
			return nil, fmt.Errorf("graph: edge %d leaves vertex %d, past the first %d", e, u, n)
		}
	}
	b := *g
	b.N, b.M = n, int(m)
	b.In = CSR{
		Offsets: g.In.Offsets[:d+1], Nbrs: g.In.Nbrs[:m], EdgeIDs: g.In.EdgeIDs[:m],
		RowIDs: g.In.RowIDs[:d], Sorted: true,
	}
	if b.M < g.M || n < g.N {
		b.Out = CSR{}
	}
	if g.Srcs != nil {
		b.Srcs, b.Dsts = g.Srcs[:m], g.Dsts[:m]
	}
	if g.EdgeTypes != nil {
		b.EdgeTypes = g.EdgeTypes[:m]
	}
	return &b, nil
}

// DegreeOrder returns the ids 0..len(deg)-1 in descending deg, ties by
// ascending id: the row order of a degree-sorted CSR. It is a counting
// sort, linear in len(deg) plus the largest degree.
func DegreeOrder(deg []int32) []int32 {
	order := make([]int32, len(deg))
	degreeOrder(order, deg, 0, nil)
	return order
}

// degreeOrder writes into order the ids base..base+len(deg)-1 in
// DegreeOrder of deg, counting in start (grown when too short) and
// returning it for the next call.
func degreeOrder(order, deg []int32, base int32, start []int32) []int32 {
	var maxDeg int32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	// start[d] is the first position of degree d: after every higher one.
	if int(maxDeg) >= len(start) {
		start = make([]int32, maxDeg+1)
	} else {
		clear(start[:maxDeg+1])
	}
	for _, d := range deg {
		start[d]++
	}
	var pos int32
	for d := maxDeg; d >= 0; d-- {
		start[d], pos = pos, pos+start[d]
	}
	for v, d := range deg {
		order[start[d]] = base + int32(v)
		start[d]++
	}
	return start
}

// sortCSRByDegree copies c's rows into DegreeOrder of the vertices they
// describe (c.RowIDs is a permutation of them).
func sortCSRByDegree(c *CSR) CSR {
	n := c.NumRows()
	deg := make([]int32, n)
	rowOf := make([]int32, n)
	for k, v := range c.RowIDs {
		deg[v] = int32(c.Degree(k))
		rowOf[v] = int32(k)
	}
	rowIDs := DegreeOrder(deg)
	offsets := make([]int64, n+1)
	nbrs := make([]int32, len(c.Nbrs))
	eids := make([]int32, len(c.EdgeIDs))
	for k, v := range rowIDs {
		lo, hi := c.Offsets[rowOf[v]], c.Offsets[rowOf[v]+1]
		copy(nbrs[offsets[k]:], c.Nbrs[lo:hi])
		copy(eids[offsets[k]:], c.EdgeIDs[lo:hi])
		offsets[k+1] = offsets[k] + hi - lo
	}
	return CSR{Offsets: offsets, Nbrs: nbrs, EdgeIDs: eids, RowIDs: rowIDs, Sorted: true}
}

// SortEdgesByType reorders each CSR row's slots so that edges of the same
// relation type are contiguous (stable within a type), enabling the
// sequential hierarchical aggregation of heterogeneous Seastar (§6.3.5).
// It requires edge types to be attached.
func (g *Graph) SortEdgesByType() error {
	if g.EdgeTypes == nil {
		return fmt.Errorf("graph: SortEdgesByType requires edge types")
	}
	sortRowsByType(&g.In, g.EdgeTypes)
	sortRowsByType(&g.Out, g.EdgeTypes)
	return nil
}

func sortRowsByType(c *CSR, types []int32) {
	for k := 0; k < c.NumRows(); k++ {
		lo, hi := c.Offsets[k], c.Offsets[k+1]
		nbrs := c.Nbrs[lo:hi]
		eids := c.EdgeIDs[lo:hi]
		idx := make([]int, len(eids))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return types[eids[idx[a]]] < types[eids[idx[b]]]
		})
		nn := make([]int32, len(nbrs))
		ne := make([]int32, len(eids))
		for i, j := range idx {
			nn[i], ne[i] = nbrs[j], eids[j]
		}
		copy(nbrs, nn)
		copy(eids, ne)
	}
}

// TypeStorageRatio returns N_e / N_t from the paper's §6.3.5 analysis of
// edge-type storage: N_e is the edge count and N_t the summed count of
// distinct edge types over all vertices' in-edge lists. The compressed
// type-offset layout only pays off when the ratio exceeds 2; the paper
// measured 1.385–1.923 on its datasets and therefore stores a plain
// per-edge type array, as this package does.
func (g *Graph) TypeStorageRatio() (float64, error) {
	if g.EdgeTypes == nil {
		return 0, fmt.Errorf("graph: TypeStorageRatio requires edge types")
	}
	var nt int
	seen := make(map[int32]bool, g.NumEdgeTypes)
	for k := 0; k < g.In.NumRows(); k++ {
		_, eids := g.In.Row(k)
		for t := range seen {
			delete(seen, t)
		}
		for _, e := range eids {
			seen[g.EdgeTypes[e]] = true
		}
		nt += len(seen)
	}
	if nt == 0 {
		return 0, nil
	}
	return float64(g.M) / float64(nt), nil
}

// Validate checks structural invariants: monotone offsets, ids in range,
// edge ids forming a permutation in each direction, and CSR/edge-list
// agreement. The in-CSR's D ≤ N rows are the vertices [0, D); the
// out-CSR and the edge list, which a forward-only block (a shard fragment,
// a delta frontier) lacks, are checked when present. It is used by tests
// and generators.
func (g *Graph) Validate() error {
	if r := g.In.NumRows(); r < 0 || r > g.N {
		return fmt.Errorf("graph: in-CSR has %d rows for %d vertices", r, g.N)
	}
	if err := validateCSR(&g.In, g.N, g.M, "in"); err != nil {
		return err
	}
	if g.Out.Offsets != nil {
		if r := g.Out.NumRows(); r != g.N {
			return fmt.Errorf("graph: out-CSR has %d rows, want %d", r, g.N)
		}
		if err := validateCSR(&g.Out, g.N, g.M, "out"); err != nil {
			return err
		}
	}
	if g.Srcs == nil {
		return nil
	}
	// Every in-CSR slot must match the original edge list, so no edge
	// enters a vertex past a block's prefix.
	if err := matchEdges(&g.In, g.Dsts, g.Srcs, "in"); err != nil {
		return err
	}
	return matchEdges(&g.Out, g.Srcs, g.Dsts, "out")
}

// matchEdges checks every slot of c against the edge list: row k's
// vertex is the slot's edge's row end, its neighbour the other end.
func matchEdges(c *CSR, rowEnd, nbrEnd []int32, dir string) error {
	for k := 0; k < c.NumRows(); k++ {
		nbrs, eids := c.Row(k)
		for i, e := range eids {
			if nbrEnd[e] != nbrs[i] || rowEnd[e] != c.RowIDs[k] {
				return fmt.Errorf("graph: %s-CSR slot (row %d, slot %d) edge %d mismatch", dir, k, i, e)
			}
		}
	}
	return nil
}

// validateCSR checks one CSR over n vertices and m edges whose rows hold
// the vertices [0, NumRows()) in some order.
func validateCSR(c *CSR, n, m int, dir string) error {
	rows := c.NumRows()
	if c.Offsets[0] != 0 || c.Offsets[rows] != int64(m) {
		return fmt.Errorf("graph: %s-CSR offsets span [%d,%d], want [0,%d]", dir, c.Offsets[0], c.Offsets[rows], m)
	}
	seen := make([]bool, m)
	for k := 0; k < rows; k++ {
		if c.Offsets[k] > c.Offsets[k+1] {
			return fmt.Errorf("graph: %s-CSR offsets not monotone at %d", dir, k)
		}
	}
	if len(c.RowIDs) != rows {
		return fmt.Errorf("graph: %s-CSR has %d row ids for %d rows", dir, len(c.RowIDs), rows)
	}
	rowSeen := make([]bool, rows)
	for _, r := range c.RowIDs {
		if r < 0 || int(r) >= rows || rowSeen[r] {
			return fmt.Errorf("graph: %s-CSR RowIDs not a permutation of [0,%d)", dir, rows)
		}
		rowSeen[r] = true
	}
	for i, u := range c.Nbrs {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("graph: %s-CSR neighbour %d out of range at slot %d", dir, u, i)
		}
	}
	for _, e := range c.EdgeIDs {
		if e < 0 || int(e) >= m || seen[e] {
			return fmt.Errorf("graph: %s-CSR edge ids not a permutation", dir)
		}
		seen[e] = true
	}
	return nil
}
