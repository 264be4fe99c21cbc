// Package graph implements the graph and data representation of Seastar
// (paper §6.1): Compressed Sparse Row storage for in-edges plus a reverse
// CSR for the backward pass; optional descending-degree row sorting for
// the kernel-level load-balancing optimizations (§6.3.3); and a secondary
// per-row sort on edge type for heterogeneous models (§6.3.5).
//
// Every graph numbers its edges by in-CSR slot: edge e is slot e of In,
// so a forward pass, which walks In, finds each row's edge-typed values
// side by side, and the in-CSR carries no edge-id array. The out-CSR's
// EdgeIDs map each of its slots to that edge id, the reverse CSR's
// edge-id array of §6.3.4. Each constructor renumbers the edges it is
// given and permutes the edge list and edge types to match; a
// renumbering is stable, so in-rows keep their neighbour order and
// out-rows the relative order of the list they were built from.
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
	"cmp"
	"fmt"
	"slices"

	"seastar/internal/sched"
)

// CSR stores one direction of a graph's adjacency.
//
// Row k describes vertex RowIDs[k] (identity when unsorted). The
// neighbours of that vertex occupy slots Offsets[k]..Offsets[k+1] of Nbrs.
// An in-CSR's slots are the edge ids. An out-CSR's EdgeIDs holds the edge
// id (in-CSR slot) of each of its slots, so edge-wise (E-type) tensors are
// addressed from the reverse direction too — the paper keeps a separate
// edge-id array precisely because the reverse CSR invalidates the
// slot-index↔edge-id mapping (§6.3.4). It is nil on an in-CSR.
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

// Row returns the neighbours of row k, slots Offsets[k]..Offsets[k+1].
func (c *CSR) Row(k int) []int32 {
	return c.Nbrs[c.Offsets[k]:c.Offsets[k+1]]
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

	// EdgeTypes maps edge id to relation type; nil when the graph is
	// homogeneous.
	EdgeTypes    []int32
	NumEdgeTypes int

	// Srcs and Dsts are the edge list indexed by edge id: Srcs[e] is
	// In.Nbrs[e] (the constructors share the array) and Dsts[e] the vertex
	// of the in-row holding slot e.
	Srcs, Dsts []int32
}

// FromEdges builds a graph over n vertices from parallel src/dst arrays.
// Both CSRs are built unsorted (RowIDs = identity); edge i of the list
// gets the id of its in-CSR slot: in-row dsts[i], after the earlier edges
// into that vertex.
func FromEdges(n int, srcs, dsts []int32) (*Graph, error) {
	return FromTypedEdges(n, srcs, dsts, nil, 1)
}

// FromTypedEdges is FromEdges with types[i] in [0, numTypes) the relation
// type of edge i of the list, permuted with the edges into edge-id order;
// types nil builds a homogeneous graph.
func FromTypedEdges(n int, srcs, dsts, types []int32, numTypes int) (*Graph, error) {
	if err := checkEdges(n, srcs, dsts); err != nil {
		return nil, err
	}
	g, slot := slotGraph(n, srcs, dsts, nil)
	g.Out, _ = buildCSR(n, srcs, dsts, slot, nil)
	if types != nil {
		if err := checkTypes(types, len(srcs), numTypes); err != nil {
			return nil, err
		}
		g.EdgeTypes, g.NumEdgeTypes = permute(types, slot), numTypes
	}
	return g, nil
}

// slotGraph builds the in-only graph of an edge list with its edges
// numbered by in-CSR slot (buildCSR with levels), the edge list permuted
// to match, and returns slot[i], the id edge i of the list took.
func slotGraph(n int, srcs, dsts []int32, levels []int) (*Graph, []int32) {
	in, slot := buildCSR(n, dsts, srcs, nil, levels)
	return &Graph{
		N: n, M: len(srcs), NumEdgeTypes: 1,
		In: in, Srcs: in.Nbrs, Dsts: rowVertices(&in),
	}, slot
}

// rowVertices returns, for every slot of c, the vertex of the row holding
// it: the in-CSR's is the edge list's Dsts.
func rowVertices(c *CSR) []int32 {
	out := make([]int32, len(c.Nbrs))
	for k, v := range c.RowIDs {
		for s := c.Offsets[k]; s < c.Offsets[k+1]; s++ {
			out[s] = v
		}
	}
	return out
}

// permute returns x with x[i] moved to slot[i]; nil stays nil.
func permute(x, slot []int32) []int32 {
	if x == nil {
		return nil
	}
	out := make([]int32, len(x))
	for i, s := range slot {
		out[s] = x[i]
	}
	return out
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

// buildCSR groups the edges of a list by their "row" endpoint (counting
// sort), each row's slots in list order. Rows are in vertex order without
// levels; with levels, the ends of consecutive vertex-id ranges (the last
// one n), each range's rows come in DegreeOrder after those of the ranges
// before. With ids, the slot edge i takes records ids[i] as its edge id
// (an out-CSR); without, it returns slot[i], the slot edge i took (an
// in-CSR, whose slots are the edge ids).
func buildCSR(n int, rowOf, nbrOf, ids []int32, levels []int) (CSR, []int32) {
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
	c := CSR{Offsets: offsets, Nbrs: make([]int32, len(rowOf)), RowIDs: rowIDs, Sorted: levels != nil}
	slot := make([]int32, len(rowOf))
	if ids != nil {
		c.EdgeIDs, slot = slot, nil
	}
	for e, r := range rowOf {
		p := cursor[r]
		cursor[r]++
		c.Nbrs[p] = nbrOf[e]
		if ids != nil {
			c.EdgeIDs[p] = ids[e]
		} else {
			slot[e] = int32(p)
		}
	}
	return c, slot
}

// WithEdgeTypes attaches a relation type to every edge: types[e], in
// [0, numTypes), is edge e's (in-CSR slot e). FromTypedEdges takes types
// in the order of an edge list instead.
func (g *Graph) WithEdgeTypes(types []int32, numTypes int) error {
	if err := checkTypes(types, g.M, numTypes); err != nil {
		return err
	}
	g.EdgeTypes, g.NumEdgeTypes = slices.Clone(types), numTypes
	return nil
}

// checkTypes validates m edge types in [0, numTypes).
func checkTypes(types []int32, m, numTypes int) error {
	if len(types) != m {
		return fmt.Errorf("graph: %d edge types for %d edges", len(types), m)
	}
	for i, t := range types {
		if t < 0 || int(t) >= numTypes {
			return fmt.Errorf("graph: edge %d type %d out of range [0,%d)", i, t, numTypes)
		}
	}
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
// Rows keep their contents and neighbour ids; the in-rows' slots move, so
// the edges are renumbered by their new slots, with the edge list and
// types permuted and the out-CSR's ids remapped to match. A graph without
// an out-CSR stays without one.
func (g *Graph) SortByDegree() *Graph {
	in, slot := sortCSRByDegree(&g.In, nil)
	out := &Graph{N: g.N, M: g.M, In: in, EdgeTypes: permute(g.EdgeTypes, slot), NumEdgeTypes: g.NumEdgeTypes}
	if g.Srcs != nil {
		out.Srcs, out.Dsts = in.Nbrs, rowVertices(&in)
	}
	if g.Out.Offsets != nil {
		out.Out, _ = sortCSRByDegree(&g.Out, slot)
	}
	return out
}

// FromInEdges builds the in-only graph of an edge list over n vertices:
// its in-CSR, built straight into level-by-level degree order (buildCSR),
// and no out-CSR — a forward pass walks none, and OutDegrees counts the
// edge list. levels are the ends of consecutive vertex-id ranges, the last
// one n; with levels {n} it is FromEdges(n, srcs, dsts).SortByDegree()
// without the out-CSR. A sampled batch passes its hop boundaries, so the
// vertices within k hops are the first rows and their in-edges the first
// slots, which are the edges [0, M') of that block: every stage's block is
// a DstPrefix (internal/sampling). srcs and dsts are not retained.
func FromInEdges(n int, srcs, dsts []int32, levels []int) (*Graph, error) {
	if err := checkEdges(n, srcs, dsts); err != nil {
		return nil, err
	}
	if len(levels) == 0 || levels[0] < 0 || levels[len(levels)-1] != n || !slices.IsSorted(levels) {
		return nil, fmt.Errorf("graph: levels %v are not ascending range ends up to %d", levels, n)
	}
	g, _ := slotGraph(n, srcs, dsts, levels)
	return g, nil
}

// DstPrefix returns the block of g's first d destinations over its first
// n vertices: a view sharing g's arrays whose in-CSR is cut to its first d
// rows, whose edges (M, the edge list, edge types) are those rows' slots —
// the edges [0, M) — and whose N is n. It keeps g's out-CSR only when
// nothing but rows is cut (all edges, N unchanged). It is exact, not a
// truncation: it succeeds only when g's in-CSR is degree-sorted, its first
// d rows hold the vertices [0, d) and every neighbour in their slots is
// below n. A sampled batch numbers vertices hop by hop and sorts its
// in-CSR hop-major (FromInEdges), so the vertices within k hops are such a
// prefix with those within k+1 hops as sources. The check costs O(d + M).
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
	for e, u := range g.In.Nbrs[:m] {
		if int(u) >= n {
			return nil, fmt.Errorf("graph: edge %d leaves vertex %d, past the first %d", e, u, n)
		}
	}
	b := *g
	b.N, b.M = n, int(m)
	b.In = CSR{Offsets: g.In.Offsets[:d+1], Nbrs: g.In.Nbrs[:m], RowIDs: g.In.RowIDs[:d], Sorted: true}
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
// describe (c.RowIDs is a permutation of them), rows in parallel (the
// out-CSR's remap is a gather over M that every snapshot pays). An
// in-CSR (ids nil) comes back with slot[s], the new slot of its slot s;
// an out-CSR's edge ids go through ids, the in-CSR's slot map.
func sortCSRByDegree(c *CSR, ids []int32) (CSR, []int32) {
	n := c.NumRows()
	deg, rowOf := make([]int32, n), make([]int32, n)
	for k, v := range c.RowIDs {
		deg[v] = int32(c.Degree(k))
		rowOf[v] = int32(k)
	}
	out := CSR{Offsets: make([]int64, n+1), Nbrs: make([]int32, len(c.Nbrs)), RowIDs: DegreeOrder(deg), Sorted: true}
	for k, v := range out.RowIDs {
		out.Offsets[k+1] = out.Offsets[k] + int64(deg[v])
	}
	slot := make([]int32, len(c.Nbrs))
	if ids != nil {
		out.EdgeIDs, slot = slot, nil
	}
	sched.For(n, 4096, func(lo, hi int) {
		for k, v := range out.RowIDs[lo:hi] {
			old, p := c.Offsets[rowOf[v]], out.Offsets[lo+k]
			row := c.Nbrs[old : old+out.Offsets[lo+k+1]-p]
			copy(out.Nbrs[p:], row)
			if ids != nil {
				for i, e := range c.EdgeIDs[old : old+int64(len(row))] {
					out.EdgeIDs[p+int64(i)] = ids[e]
				}
				continue
			}
			for i := range row {
				slot[old+int64(i)] = int32(p) + int32(i)
			}
		}
	})
	return out, slot
}

// SortEdgesByType reorders each CSR row's slots so that edges of the same
// relation type are contiguous (stable within a type), enabling the
// sequential hierarchical aggregation of heterogeneous Seastar (§6.3.5).
// The in-rows' slots move, so the edges are renumbered as SortByDegree
// renumbers them. It requires edge types to be attached.
func (g *Graph) SortEdgesByType() error {
	if g.EdgeTypes == nil {
		return fmt.Errorf("graph: SortEdgesByType requires edge types")
	}
	slot := typeOrder(&g.In, func(s int64) int32 { return g.EdgeTypes[s] })
	g.In.Nbrs = permute(g.In.Nbrs, slot)
	if g.Srcs != nil {
		g.Srcs = g.In.Nbrs // a row's slots share one destination: Dsts stays
	}
	g.EdgeTypes = permute(g.EdgeTypes, slot)
	if g.Out.Offsets != nil {
		ids := make([]int32, len(g.Out.EdgeIDs))
		for q, e := range g.Out.EdgeIDs {
			ids[q] = slot[e]
		}
		out := typeOrder(&g.Out, func(q int64) int32 { return g.EdgeTypes[ids[q]] })
		g.Out.Nbrs, g.Out.EdgeIDs = permute(g.Out.Nbrs, out), permute(ids, out)
	}
	return nil
}

// typeOrder returns the slot each slot of c moves to when every row's
// slots are stably sorted by the type typeOf names.
func typeOrder(c *CSR, typeOf func(slot int64) int32) []int32 {
	slot := make([]int32, len(c.Nbrs))
	var row []int64
	for k := 0; k < c.NumRows(); k++ {
		lo, hi := c.Offsets[k], c.Offsets[k+1]
		row = row[:0]
		for s := lo; s < hi; s++ {
			row = append(row, s)
		}
		slices.SortStableFunc(row, func(a, b int64) int { return cmp.Compare(typeOf(a), typeOf(b)) })
		for i, s := range row {
			slot[s] = int32(lo) + int32(i)
		}
	}
	return slot
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
		clear(seen)
		for _, t := range g.EdgeTypes[g.In.Offsets[k]:g.In.Offsets[k+1]] {
			seen[t] = true
		}
		nt += len(seen)
	}
	if nt == 0 {
		return 0, nil
	}
	return float64(g.M) / float64(nt), nil
}

// Validate checks structural invariants: monotone offsets, ids in range,
// and the one edge numbering — the in-CSR carries no edge-id array, the
// out-CSR's EdgeIDs are a permutation of [0, M) whose in-slots hold the
// same (src, dst) pair, and the edge list and edge types are indexed by
// in-slot. The in-CSR's D ≤ N rows are the vertices [0, D); the out-CSR
// and the edge list, which a forward-only block (a shard fragment, a delta
// frontier) lacks, are checked when present. It is used by tests and
// generators.
func (g *Graph) Validate() error {
	if r := g.In.NumRows(); r < 0 || r > g.N {
		return fmt.Errorf("graph: in-CSR has %d rows for %d vertices", r, g.N)
	}
	if g.In.EdgeIDs != nil {
		return fmt.Errorf("graph: in-CSR carries an edge-id array; its slots are the edge ids")
	}
	if err := validateCSR(&g.In, g.N, g.M, "in"); err != nil {
		return err
	}
	dst := rowVertices(&g.In) // dst[e]: the vertex of the in-row holding slot e
	if g.Out.Offsets != nil {
		if r := g.Out.NumRows(); r != g.N {
			return fmt.Errorf("graph: out-CSR has %d rows, want %d", r, g.N)
		}
		if err := validateCSR(&g.Out, g.N, g.M, "out"); err != nil {
			return err
		}
		if len(g.Out.EdgeIDs) != g.M {
			return fmt.Errorf("graph: out-CSR has %d edge ids for %d edges", len(g.Out.EdgeIDs), g.M)
		}
		seen := make([]bool, g.M)
		for k, u := range g.Out.RowIDs {
			for q := g.Out.Offsets[k]; q < g.Out.Offsets[k+1]; q++ {
				e := g.Out.EdgeIDs[q]
				if e < 0 || int(e) >= g.M || seen[e] {
					return fmt.Errorf("graph: out-CSR edge ids not a permutation of [0,%d)", g.M)
				}
				seen[e] = true
				if g.In.Nbrs[e] != u || dst[e] != g.Out.Nbrs[q] {
					return fmt.Errorf("graph: out-CSR slot %d (%d→%d) names in-slot %d (%d→%d)",
						q, u, g.Out.Nbrs[q], e, g.In.Nbrs[e], dst[e])
				}
			}
		}
	}
	if g.EdgeTypes != nil && len(g.EdgeTypes) != g.M {
		return fmt.Errorf("graph: %d edge types for %d edges", len(g.EdgeTypes), g.M)
	}
	if g.Srcs == nil {
		return nil
	}
	// The edge list is indexed by in-slot, so no edge enters a vertex past
	// a block's prefix.
	if len(g.Srcs) != g.M || len(g.Dsts) != g.M {
		return fmt.Errorf("graph: edge list of %d/%d for %d edges", len(g.Srcs), len(g.Dsts), g.M)
	}
	for e := range g.Srcs {
		if g.Srcs[e] != g.In.Nbrs[e] || g.Dsts[e] != dst[e] {
			return fmt.Errorf("graph: edge %d (%d→%d) is not its in-CSR slot (%d→%d)",
				e, g.Srcs[e], g.Dsts[e], g.In.Nbrs[e], dst[e])
		}
	}
	return nil
}

// validateCSR checks one CSR over n vertices and m edges whose rows hold
// the vertices [0, NumRows()) in some order.
func validateCSR(c *CSR, n, m int, dir string) error {
	rows := c.NumRows()
	if c.Offsets[0] != 0 || c.Offsets[rows] != int64(m) || len(c.Nbrs) != m {
		return fmt.Errorf("graph: %s-CSR offsets span [%d,%d] over %d slots, want [0,%d]",
			dir, c.Offsets[0], c.Offsets[rows], len(c.Nbrs), m)
	}
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
	return nil
}
