// Dynamic graph deltas: a chunked CSR representation whose generations
// structurally share unchanged adjacency segments.
//
// A DeltaGraph partitions each CSR direction into fixed-size row chunks.
// Applying a Delta (edge/vertex add/remove) builds a new DeltaGraph that
// rebuilds only the chunks containing touched rows and shares every clean
// chunk with its parent by pointer, so a one-edge update copies O(chunk)
// adjacency instead of O(M). Edge ids are stable: a surviving edge keeps
// its id in every later generation, and added edges take fresh ids past
// every id handed out, in delta order, so every row's slots stay in
// ascending-id order. Flatten() ranks the surviving ids once, which makes
// it structurally identical to FromEdges over the canonical edge list
// (parent edges in order, minus removals, plus additions in delta order).
// Removals leave gaps in the id space; an Apply that leaves more than
// 2·M + DeltaChunkRows ids handed out re-chunks the child densely, so the
// id space stays bounded by the graph rather than by its history.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"seastar/internal/sched"
)

// DeltaChunkRows is the number of CSR rows per copy-on-write chunk. A
// delta touching one row copies one chunk (~this many rows' adjacency)
// per direction instead of the whole CSR.
const DeltaChunkRows = 1024

// Edge is one (src, dst) pair in a delta.
type Edge struct {
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
}

// Delta is one batch of structural mutations against a parent graph.
// Removals apply to the parent state first, then additions: an edge added
// by this delta cannot be removed by it. RemoveVertices isolates the
// vertices (drops every incident edge) but keeps their ids stable —
// vertex ids are external keys, so they are never renumbered.
type Delta struct {
	AddVertices    int     `json:"add_vertices,omitempty"`
	RemoveVertices []int32 `json:"remove_vertices,omitempty"`
	AddEdges       []Edge  `json:"add_edges,omitempty"`
	RemoveEdges    []Edge  `json:"remove_edges,omitempty"`
}

// csrChunk is one immutable chunk of a chunked CSR: local offsets plus
// neighbour and edge-id slots for DeltaChunkRows consecutive rows. Chunks
// are shared freely across generations and never mutated after build.
type csrChunk struct {
	offs []int64 // local offsets, len = rows+1, offs[0] == 0
	nbrs []int32
	eids []int32
}

// ChunkedCSR stores one direction of adjacency as copy-on-write chunks.
type ChunkedCSR struct {
	n      int
	chunks []*csrChunk
}

func (c *ChunkedCSR) chunkOf(v int32) (*csrChunk, int) {
	return c.chunks[int(v)/DeltaChunkRows], int(v) % DeltaChunkRows
}

// Row returns the neighbour and edge-id slots of vertex v's row.
func (c *ChunkedCSR) Row(v int32) (nbrs, eids []int32) {
	ch, r := c.chunkOf(v)
	lo, hi := ch.offs[r], ch.offs[r+1]
	return ch.nbrs[lo:hi], ch.eids[lo:hi]
}

// Degree returns the number of slots in vertex v's row.
func (c *ChunkedCSR) Degree(v int32) int {
	ch, r := c.chunkOf(v)
	return int(ch.offs[r+1] - ch.offs[r])
}

// Degrees returns every row's degree.
func (c *ChunkedCSR) Degrees() []int32 {
	d := make([]int32, c.n)
	for v := 0; v < c.n; v++ {
		ch, r := c.chunkOf(int32(v))
		d[v] = int32(ch.offs[r+1] - ch.offs[r])
	}
	return d
}

// DeltaGraph is an immutable graph generation backed by chunked CSRs.
// Vertex rows are in id order (never degree-sorted): structural sharing
// requires a stable row order across generations. Heterogeneous graphs
// (edge types) are not supported.
type DeltaGraph struct {
	n, m int
	ids  int        // edge ids handed out: every id in the chunks is below it
	in   ChunkedCSR // row v lists u for every edge u→v
	out  ChunkedCSR // row u lists v for every edge u→v

	flatOnce sync.Once
	flat     *Graph
}

// N returns the vertex count.
func (dg *DeltaGraph) N() int { return dg.n }

// M returns the edge count.
func (dg *DeltaGraph) M() int { return dg.m }

// In returns the in-edge chunked CSR.
func (dg *DeltaGraph) In() *ChunkedCSR { return &dg.in }

// Out returns the out-edge chunked CSR.
func (dg *DeltaGraph) Out() *ChunkedCSR { return &dg.out }

// InDegrees returns every vertex's in-degree.
func (dg *DeltaGraph) InDegrees() []int32 { return dg.in.Degrees() }

// OutDegrees returns every vertex's out-degree.
func (dg *DeltaGraph) OutDegrees() []int32 { return dg.out.Degrees() }

// NewDeltaGraph chunks an edge list into the copy-on-write representation
// (counting sort per direction, O(N+M)). Edge i gets id i, matching
// FromEdges.
func NewDeltaGraph(n int, srcs, dsts []int32) (*DeltaGraph, error) {
	if err := checkEdges(n, srcs, dsts); err != nil {
		return nil, err
	}
	return &DeltaGraph{
		n: n, m: len(srcs), ids: len(srcs),
		in:  chunkEdges(n, dsts, srcs),
		out: chunkEdges(n, srcs, dsts),
	}, nil
}

// FromGraph chunks an existing homogeneous graph's edge list. The source
// may be degree-sorted; the chunked form is always in vertex-id order.
func FromGraph(g *Graph) (*DeltaGraph, error) {
	if g.EdgeTypes != nil {
		return nil, fmt.Errorf("graph: deltas do not support heterogeneous graphs (edge types present)")
	}
	return NewDeltaGraph(g.N, g.Srcs, g.Dsts)
}

// chunkEdges groups edges by row endpoint into chunked CSR form,
// inserting slots in edge-id order (same order buildCSR produces).
func chunkEdges(n int, rowOf, nbrOf []int32) ChunkedCSR {
	deg := make([]int64, n)
	for _, r := range rowOf {
		deg[r]++
	}
	nChunks := (n + DeltaChunkRows - 1) / DeltaChunkRows
	chunks := make([]*csrChunk, nChunks)
	cursor := make([]int64, n) // global insert cursor per row, rebased per chunk
	for ci := 0; ci < nChunks; ci++ {
		lo := ci * DeltaChunkRows
		hi := lo + DeltaChunkRows
		if hi > n {
			hi = n
		}
		rows := hi - lo
		offs := make([]int64, rows+1)
		for r := 0; r < rows; r++ {
			offs[r+1] = offs[r] + deg[lo+r]
		}
		chunks[ci] = &csrChunk{
			offs: offs,
			nbrs: make([]int32, offs[rows]),
			eids: make([]int32, offs[rows]),
		}
		for r := 0; r < rows; r++ {
			cursor[lo+r] = offs[r]
		}
	}
	for e := range rowOf {
		r := rowOf[e]
		ch := chunks[int(r)/DeltaChunkRows]
		p := cursor[r]
		cursor[r]++
		ch.nbrs[p] = nbrOf[e]
		ch.eids[p] = int32(e)
	}
	return ChunkedCSR{n: n, chunks: chunks}
}

// ApplyStats reports what one Apply did: which vertices' adjacency or
// degree changed, and how much of the CSR was shared versus copied.
type ApplyStats struct {
	// Touched is the sorted set of vertices whose adjacency, degree, or
	// existence changed: endpoints of added/removed edges, isolated
	// vertices, and newly added vertices.
	Touched []int32
	// AddedEdges and RemovedEdges count the structural mutations applied.
	AddedEdges, RemovedEdges int
	// SharedChunks chunks were reused by pointer; CopiedChunks were
	// rebuilt because they contain touched rows (every chunk, when the
	// Apply re-chunked the child to bound its id space).
	SharedChunks, CopiedChunks int
}

type addSlot struct{ nbr, eid int32 }

// checkGrowth rejects, before anything is allocated, a delta that would
// push the graph past what int32 vertex ids can address or more than
// double it (up to one chunk of rows is always allowed, so a small graph
// can still grow): a graph that large is a new graph — swap it in.
func (dg *DeltaGraph) checkGrowth(d *Delta) error {
	if d.AddVertices < 0 {
		return fmt.Errorf("graph: delta: negative AddVertices %d", d.AddVertices)
	}
	if d.AddVertices > math.MaxInt32-dg.n {
		return fmt.Errorf("graph: delta: AddVertices %d overflows int32 vertex ids (n=%d)", d.AddVertices, dg.n)
	}
	if d.AddVertices > max(dg.n, DeltaChunkRows) {
		return fmt.Errorf("graph: delta: AddVertices %d more than doubles n=%d; swap the graph instead", d.AddVertices, dg.n)
	}
	if len(d.AddEdges) > math.MaxInt32-dg.ids {
		return fmt.Errorf("graph: delta: %d added edges overflow int32 edge ids (%d handed out)", len(d.AddEdges), dg.ids)
	}
	return nil
}

// Apply builds the child generation for delta d. The parent is unchanged;
// clean chunks are shared between the two by pointer.
func (dg *DeltaGraph) Apply(d *Delta) (*DeltaGraph, *ApplyStats, error) {
	if err := dg.checkGrowth(d); err != nil {
		return nil, nil, err
	}
	newN := dg.n + d.AddVertices
	removed := map[int32]bool{} // edge id → removed; sized by the removals, never by M
	removedEndpoints := make([]Edge, 0, len(d.RemoveEdges))
	touched := make([]int32, 0, 2*(len(d.RemoveEdges)+len(d.AddEdges))+len(d.RemoveVertices)+d.AddVertices)

	for _, v := range d.RemoveVertices {
		if v < 0 || int(v) >= dg.n {
			return nil, nil, fmt.Errorf("graph: delta: remove-vertex %d out of range [0,%d)", v, dg.n)
		}
		touched = append(touched, v)
		nbrs, eids := dg.in.Row(v)
		for i, u := range nbrs {
			if !removed[eids[i]] {
				removed[eids[i]] = true
				removedEndpoints = append(removedEndpoints, Edge{Src: u, Dst: v})
			}
		}
		nbrs, eids = dg.out.Row(v)
		for i, w := range nbrs {
			if !removed[eids[i]] {
				removed[eids[i]] = true
				removedEndpoints = append(removedEndpoints, Edge{Src: v, Dst: w})
			}
		}
	}
	for _, e := range d.RemoveEdges {
		if e.Src < 0 || int(e.Src) >= dg.n || e.Dst < 0 || int(e.Dst) >= dg.n {
			return nil, nil, fmt.Errorf("graph: delta: remove-edge %d→%d out of range [0,%d)", e.Src, e.Dst, dg.n)
		}
		matched := false
		nbrs, eids := dg.in.Row(e.Dst)
		for i, u := range nbrs {
			if u == e.Src && !removed[eids[i]] {
				removed[eids[i]] = true
				removedEndpoints = append(removedEndpoints, e)
				matched = true
			}
		}
		if !matched {
			return nil, nil, fmt.Errorf("graph: delta: no such edge %d→%d", e.Src, e.Dst)
		}
	}

	nChunks := (newN + DeltaChunkRows - 1) / DeltaChunkRows
	inDirty, outDirty := make([]bool, nChunks), make([]bool, nChunks)
	for _, e := range removedEndpoints {
		touched = append(touched, e.Src, e.Dst)
		inDirty[e.Dst/DeltaChunkRows], outDirty[e.Src/DeltaChunkRows] = true, true
	}
	inAdds := map[int32][]addSlot{}
	outAdds := map[int32][]addSlot{}
	for i, e := range d.AddEdges {
		if e.Src < 0 || int(e.Src) >= newN || e.Dst < 0 || int(e.Dst) >= newN {
			return nil, nil, fmt.Errorf("graph: delta: add-edge %d→%d out of range [0,%d)", e.Src, e.Dst, newN)
		}
		eid := int32(dg.ids + i)
		inAdds[e.Dst] = append(inAdds[e.Dst], addSlot{nbr: e.Src, eid: eid})
		outAdds[e.Src] = append(outAdds[e.Src], addSlot{nbr: e.Dst, eid: eid})
		touched = append(touched, e.Src, e.Dst)
		inDirty[e.Dst/DeltaChunkRows], outDirty[e.Src/DeltaChunkRows] = true, true
	}
	for v := dg.n; v < newN; v++ {
		touched = append(touched, int32(v))
	}
	slices.Sort(touched)

	st := &ApplyStats{
		AddedEdges:   len(d.AddEdges),
		RemovedEdges: len(removed),
		Touched:      slices.Compact(touched),
	}
	child := &DeltaGraph{
		n: newN, m: dg.m - len(removed) + len(d.AddEdges), ids: dg.ids + len(d.AddEdges),
		in:  applyCSR(&dg.in, newN, removed, inAdds, inDirty, st),
		out: applyCSR(&dg.out, newN, removed, outAdds, outDirty, st),
	}
	if child.ids > 2*child.m+DeltaChunkRows {
		// Removals have left over half the id space as gaps: re-chunk the
		// flat form, which numbers densely. O(M), paid at most once per
		// M + DeltaChunkRows added edges.
		g := child.Flatten()
		child, _ = NewDeltaGraph(g.N, g.Srcs, g.Dsts) // a flat form's edges are in range
		st.SharedChunks, st.CopiedChunks = 0, len(child.in.chunks)+len(child.out.chunks)
	}
	return child, st, nil
}

// applyCSR builds one direction of the child: a chunk that is not dirty
// and keeps its row span is shared by pointer; any other chunk (a row
// gained or lost a slot, or the chunk's row span changed) is rebuilt row
// by row — surviving slots in order, then additions in delta order.
func applyCSR(old *ChunkedCSR, newN int, removed map[int32]bool, adds map[int32][]addSlot,
	dirty []bool, st *ApplyStats) ChunkedCSR {
	chunks := make([]*csrChunk, len(dirty))
	for ci := range chunks {
		lo := ci * DeltaChunkRows
		hi := min(lo+DeltaChunkRows, newN)
		if !dirty[ci] && ci < len(old.chunks) && hi <= old.n {
			chunks[ci] = old.chunks[ci]
			st.SharedChunks++
			continue
		}
		chunks[ci] = rebuildChunk(old, lo, hi, removed, adds)
		st.CopiedChunks++
	}
	return ChunkedCSR{n: newN, chunks: chunks}
}

func rebuildChunk(old *ChunkedCSR, lo, hi int, removed map[int32]bool, adds map[int32][]addSlot) *csrChunk {
	ch := &csrChunk{offs: make([]int64, hi-lo+1)}
	if ci := lo / DeltaChunkRows; ci < len(old.chunks) {
		slots := len(old.chunks[ci].nbrs)
		ch.nbrs, ch.eids = make([]int32, 0, slots), make([]int32, 0, slots)
	}
	for v := lo; v < hi; v++ {
		if v < old.n {
			nbrs, eids := old.Row(int32(v))
			for i, u := range nbrs {
				if !removed[eids[i]] {
					ch.nbrs = append(ch.nbrs, u)
					ch.eids = append(ch.eids, eids[i])
				}
			}
		}
		for _, a := range adds[int32(v)] {
			ch.nbrs = append(ch.nbrs, a.nbr)
			ch.eids = append(ch.eids, a.eid)
		}
		ch.offs[v-lo+1] = int64(len(ch.nbrs))
	}
	return ch
}

// Flatten materializes the flat Graph form (computed once and cached):
// edge e of the chunks becomes edge rank[e], the number of surviving ids
// below e, and both CSR directions are built from that edge list the way
// FromEdges builds them. The result is structurally identical to
// FromEdges over the canonical edge list of this generation.
func (dg *DeltaGraph) Flatten() *Graph {
	dg.flatOnce.Do(func() {
		rank := make([]int32, dg.ids)
		for _, ch := range dg.in.chunks {
			for _, e := range ch.eids {
				rank[e] = 1
			}
		}
		var next int32
		for e, alive := range rank {
			rank[e] = next
			next += alive
		}
		srcs := make([]int32, dg.m)
		dsts := make([]int32, dg.m)
		for v := 0; v < dg.n; v++ {
			nbrs, eids := dg.in.Row(int32(v))
			for i, u := range nbrs {
				srcs[rank[eids[i]]] = u
				dsts[rank[eids[i]]] = int32(v)
			}
		}
		dg.flat = &Graph{
			N: dg.n, M: dg.m,
			Srcs: srcs, Dsts: dsts,
			In:           buildCSR(dg.n, dsts, srcs, nil),
			Out:          buildCSR(dg.n, srcs, dsts, nil),
			NumEdgeTypes: 1,
		}
	})
	return dg.flat
}

// ExpandOut returns seed ∪ out-neighbours(seed) as a sorted vertex set —
// one hop of dirty-frontier expansion over the reverse (out) CSR. Marking
// is parallelized over edge-balanced chunks of the seed's out-degree mass
// (the same cost model the kernel scheduler uses), so hub-heavy frontiers
// on power-law graphs don't serialize on one worker.
func (dg *DeltaGraph) ExpandOut(seed []int32) []int32 {
	if len(seed) == 0 {
		return nil
	}
	mark := make([]uint32, dg.n)
	for _, v := range seed {
		mark[v] = 1
	}
	offs := make([]int64, len(seed)+1)
	for i, v := range seed {
		offs[i+1] = offs[i] + int64(dg.out.Degree(v))
	}
	workers := sched.Workers(len(seed))
	ranges := sched.EdgeBalanced(offs, 4, sched.Oversubscribe(workers, 4))
	sched.Do(len(ranges), workers, func(_, c int) {
		for i := ranges[c].Lo; i < ranges[c].Hi; i++ {
			nbrs, _ := dg.out.Row(seed[i])
			for _, w := range nbrs {
				if atomic.LoadUint32(&mark[w]) == 0 {
					atomic.StoreUint32(&mark[w], 1)
				}
			}
		}
	})
	out := make([]int32, 0, len(seed)*2)
	for v := 0; v < dg.n; v++ {
		if mark[v] != 0 {
			out = append(out, int32(v))
		}
	}
	return out
}
