// Package part implements edge-balanced vertex-cut graph partitioning
// for sharded serving. A partition assigns every vertex's complete
// in-edge row to exactly one shard (its master); source vertices that
// feed rows on other shards are replicated there as mirrors. Keeping
// whole rows together is what makes sharded inference bitwise-identical
// to the single-process forward: a per-vertex fold never splits across
// shards, so it sees exactly the neighbour values, in exactly the
// neighbour order, that the full-graph kernel would.
//
// The cost model is internal/sched's CSR edge-unit model — a row weighs
// its in-degree plus a fixed per-row overhead — so shard capacities line
// up with what the kernel scheduler already balances within a process.
package part

import (
	"fmt"
	"sort"

	"seastar/internal/graph"
	"seastar/internal/sched"
)

// RowCost is the per-row overhead in edge-units, matching the kernel
// scheduler's chunking cost (internal/kernels uses 4 edge-units per row
// for leaf loads and pre/post processing).
const RowCost = 4

// capacitySlack is how far above the ideal per-shard share the greedy
// placer may load a shard before the hard cap engages. Tight enough to
// keep shards edge-balanced, loose enough that affinity placement is not
// forced into round-robin.
const capacitySlack = 1.05

// Partition is a k-way vertex-cut of one graph: the owner table plus one
// Fragment per shard. It is a pure deterministic function of
// (graph, mode, k): a process that loads the same dataset derives the
// same owner table (Owners) and, from it, any one fragment
// (NewFragment) — a shard worker builds only its own, the coordinator
// none — so there is no fragment wire format.
type Partition struct {
	K     int
	N, M  int
	Mode  string
	Owner []int32 // global vertex id → owning shard
	Frags []*Fragment
	Stats Stats
}

// Fragment is one shard's slice of the graph: the in-CSR of every owned
// vertex's complete in-edge row, degree rows for all locals (owned
// followed by mirrors), and the exchange tables that pair it with its
// peers.
type Fragment struct {
	Shard int
	K     int

	// G is the owned rows' in-CSR and nothing else (no out-CSR, no edge
	// list), a block (graph package doc): N = len(Locals), the value rows
	// its neighbour ids index, and its in-CSR has Owned rows — row k
	// computes owned local RowIDs[k], a permutation of [0, Owned) in
	// descending in-degree. Each row holds the vertex's whole in-list in
	// the full graph's in-CSR order; edge ids are slot indices. Mirror
	// rows are never computed: their values are imported.
	G *graph.Graph

	// Locals maps local id → global vertex id. Locals[:Owned] are owned
	// (this shard is their master), the rest are mirrors, each group in
	// ascending global id.
	Locals []int32
	Owned  int

	// LocalOf maps global vertex id → local id + 1 (0 = not local).
	LocalOf []int32

	// GlobalInDeg / GlobalOutDeg carry the full graph's degrees per
	// local row, so shard workers compute normalizers with exactly the
	// arithmetic the single-process snapshot uses.
	GlobalInDeg  []int32
	GlobalOutDeg []int32

	// ExportTo[t] lists the owned local rows whose global vertex is
	// mirrored on shard t, in ascending global id. ImportFrom[t] lists
	// this shard's mirror rows mastered by shard t, in the same order —
	// fragment s's ImportFrom[t] pairs element-for-element with fragment
	// t's ExportTo[s], so exchanged row blocks need no id headers.
	ExportTo   [][]int32
	ImportFrom [][]int32
}

// Mirrors returns the number of mirror rows.
func (f *Fragment) Mirrors() int { return len(f.Locals) - f.Owned }

// Stats summarizes partition quality.
type Stats struct {
	K        int     `json:"k"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Mode     string  `json:"mode"`
	RowCost  float64 `json:"row_cost"`

	// Replication is the vertex replication factor: Σ per-shard locals
	// divided by N. 1.0 means no mirrors; bounded above by K.
	Replication float64 `json:"replication"`

	// MirrorFlows counts distinct (master vertex, remote shard) pairs —
	// the rows actually transferred per exchange round. One transfer
	// serves every cut edge that pair covers, so this is the
	// deduplicated cross-shard traffic unit.
	MirrorFlows int `json:"mirror_flows"`

	// EdgeCutRatio is MirrorFlows / M: the fraction of edges that cost a
	// cross-shard row transfer after mirror deduplication. This is the
	// ratio the CI gate bounds.
	EdgeCutRatio float64 `json:"edge_cut_ratio"`

	// RawCutFrac is the undeduplicated cut: the fraction of edges whose
	// endpoints have different masters. On structureless random graphs
	// this approaches 1−1/k regardless of partitioner quality; it is
	// reported for context, not gated.
	RawCutFrac float64 `json:"raw_cut_frac"`

	// Edge-unit balance across shards (units = in-edges + RowCost·rows).
	MaxShardUnits float64 `json:"max_shard_units"`
	MinShardUnits float64 `json:"min_shard_units"`
	// Balance is max/mean shard units; 1.0 is perfect.
	Balance float64 `json:"balance"`
}

// Build partitions g into k shards and materializes every fragment: the
// owner table, NewFragment once per shard, and the quality stats. Mode is
// as for Owners.
func Build(g *graph.Graph, k int, mode string) (*Partition, error) {
	owner, err := Owners(g, k, mode)
	if err != nil {
		return nil, err
	}
	if mode == "" {
		mode = "greedy"
	}
	p := &Partition{K: k, N: g.N, M: g.M, Mode: mode, Owner: owner, Frags: make([]*Fragment, k)}
	for s := range p.Frags {
		p.Frags[s] = NewFragment(g, owner, k, s)
	}
	p.Stats = computeStats(g, p, mode)
	return p, nil
}

// Owners returns the owner table of a k-way partition of g — global
// vertex id → master shard — and nothing else. Mode is "greedy" (default:
// streaming highest-degree-first placement scoring neighbour affinity
// against remaining capacity) or "range" (contiguous vertex ranges from
// sched.EdgeBalanced — the kernel scheduler's own chunking, useful as a
// locality-free baseline).
func Owners(g *graph.Graph, k int, mode string) ([]int32, error) {
	if g == nil {
		return nil, fmt.Errorf("part: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("part: shard count %d must be ≥ 1", k)
	}
	if k > g.N {
		return nil, fmt.Errorf("part: %d shards for %d vertices", k, g.N)
	}
	switch mode {
	case "", "greedy":
		return greedyOwners(g, k), nil
	case "range":
		return rangeOwners(g, k), nil
	}
	return nil, fmt.Errorf("part: unknown mode %q (want greedy|range)", mode)
}

// rangeOwners assigns contiguous vertex ranges balanced by the sched
// edge-unit model over the in-CSR (original vertex order).
func rangeOwners(g *graph.Graph, k int) []int32 {
	owner := make([]int32, g.N)
	ranges := sched.EdgeBalanced(g.In.Offsets, RowCost, k)
	for s, r := range ranges {
		for v := r.Lo; v < r.Hi; v++ {
			owner[g.In.RowIDs[v]] = int32(s)
		}
	}
	// EdgeBalanced may return fewer ranges than k on degenerate inputs (one
	// hub holding every edge): the shards past the last range then own
	// nothing, and their fragments have zero rows.
	return owner
}

// greedyOwners streams vertices in descending total-degree order (hubs
// first, the order in which placement decisions matter most) and places
// each on the shard maximizing
//
//	(1 + assigned neighbours there) × (1 − load/capacity)
//
// — linear deterministic greedy (LDG) adapted to the vertex-cut: the
// affinity term counts both in- and out-neighbours already assigned,
// since either direction's co-location removes a future mirror, and the
// load term keeps shards edge-balanced under the sched cost model.
func greedyOwners(g *graph.Graph, k int) []int32 {
	n := g.N
	inDeg := g.InDegrees()
	outDeg := g.OutDegrees()

	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := int(inDeg[order[a]]) + int(outDeg[order[a]])
		db := int(inDeg[order[b]]) + int(outDeg[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	totalUnits := float64(g.M) + RowCost*float64(n)
	capacity := totalUnits / float64(k) * capacitySlack

	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	load := make([]float64, k)
	affinity := make([]float64, k)

	inOff, inNbrs := g.In.Offsets, g.In.Nbrs
	outOff, outNbrs := g.Out.Offsets, g.Out.Nbrs
	// Row r of each CSR describes vertex RowIDs[r]; FromEdges builds
	// identity RowIDs, but stay general for sorted graphs.
	inRowOf := invertRowIDs(g.In.RowIDs)
	outRowOf := invertRowIDs(g.Out.RowIDs)

	for _, v := range order {
		for s := range affinity {
			affinity[s] = 0
		}
		r := inRowOf[v]
		for _, u := range inNbrs[inOff[r]:inOff[r+1]] {
			if o := owner[u]; o >= 0 {
				affinity[o]++
			}
		}
		r = outRowOf[v]
		for _, u := range outNbrs[outOff[r]:outOff[r+1]] {
			if o := owner[u]; o >= 0 {
				affinity[o]++
			}
		}
		best, bestScore := -1, -1.0
		for s := 0; s < k; s++ {
			if load[s] >= capacity {
				continue
			}
			score := (1 + affinity[s]) * (1 - load[s]/capacity)
			if score > bestScore {
				best, bestScore = s, score
			}
		}
		if best < 0 {
			// Every shard hit the cap (slack exhausted): least loaded.
			best = 0
			for s := 1; s < k; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
		}
		owner[v] = int32(best)
		load[best] += float64(inDeg[v]) + RowCost
	}
	return owner
}

func invertRowIDs(rowIDs []int32) []int32 {
	inv := make([]int32, len(rowIDs))
	for r, v := range rowIDs {
		inv[v] = int32(r)
	}
	return inv
}

// eachFlow calls visit once per mirror flow — a vertex u and a shard
// t ≠ owner[u] that owns some out-neighbour of u, so that t mirrors u —
// in ascending u. It is the one definition of which rows cross a shard
// boundary: NewFragment builds its exchange tables from it, Flows counts
// it, and both ends of a flow see it in the same order.
func eachFlow(g *graph.Graph, owner []int32, k int, visit func(u, t int32)) {
	outRowOf := invertRowIDs(g.Out.RowIDs)
	last := make([]int32, k) // last[t] = u+1 once (u, t) was visited
	for u := range int32(g.N) {
		r := outRowOf[u]
		for _, v := range g.Out.Nbrs[g.Out.Offsets[r]:g.Out.Offsets[r+1]] {
			if t := owner[v]; t != owner[u] && last[t] != u+1 {
				last[t] = u + 1
				visit(u, t)
			}
		}
	}
}

// Flows returns how many rows shard s exports to shard t each exchange
// round (flows[s][t] = len of fragment s's ExportTo[t]), from the owner
// table alone: what a coordinator sizes its relays by without building a
// fragment.
func Flows(g *graph.Graph, owner []int32, k int) [][]int {
	flows := make([][]int, k)
	for s := range flows {
		flows[s] = make([]int, k)
	}
	eachFlow(g, owner, k, func(u, t int32) { flows[owner[u]][t]++ })
	return flows
}

// NewFragment materializes shard s's fragment of the partition whose
// owner table is owner (from Owners over the same g and k): its owned and
// mirror rows, local graph, global degrees and exchange tables. Only
// fragment s is built, so a worker holds one fragment's state, never k.
func NewFragment(g *graph.Graph, owner []int32, k, s int) *Fragment {
	f := &Fragment{
		Shard: s, K: k,
		LocalOf:    make([]int32, g.N),
		ExportTo:   make([][]int32, k),
		ImportFrom: make([][]int32, k),
	}
	// Owned rows first, ascending global id.
	for v, o := range owner {
		if int(o) == s {
			f.Locals = append(f.Locals, int32(v))
			f.LocalOf[v] = int32(len(f.Locals))
		}
	}
	f.Owned = len(f.Locals)

	// Exchange tables, both in ascending global id: an owned u mirrored on
	// t is an ExportTo[t] row here, a u mirrored here (a mirror row,
	// appended after the owned ones) is an ImportFrom[owner[u]] row — which
	// is how fragment s's ImportFrom[t] pairs element for element with
	// fragment t's ExportTo[s].
	eachFlow(g, owner, k, func(u, t int32) {
		switch {
		case int(owner[u]) == s:
			f.ExportTo[t] = append(f.ExportTo[t], f.LocalOf[u]-1)
		case int(t) == s:
			f.ImportFrom[owner[u]] = append(f.ImportFrom[owner[u]], int32(len(f.Locals)))
			f.Locals = append(f.Locals, u)
			f.LocalOf[u] = int32(len(f.Locals))
		}
	})

	inDeg, outDeg := g.InDegrees(), g.OutDegrees()
	f.GlobalInDeg = make([]int32, len(f.Locals))
	f.GlobalOutDeg = make([]int32, len(f.Locals))
	for l, v := range f.Locals {
		f.GlobalInDeg[l] = inDeg[v]
		f.GlobalOutDeg[l] = outDeg[v]
	}
	f.G = ownedInCSR(g, f)
	return f
}

// ownedInCSR builds f.G from g's in-CSR, in graph.SortByDegree's row
// order: descending in-degree, ties by local id.
func ownedInCSR(g *graph.Graph, f *Fragment) *graph.Graph {
	order := graph.DegreeOrder(f.GlobalInDeg[:f.Owned])
	m := 0
	for _, d := range f.GlobalInDeg[:f.Owned] {
		m += int(d)
	}
	in := graph.CSR{Offsets: make([]int64, 1, f.Owned+1), Nbrs: make([]int32, 0, m), RowIDs: order, Sorted: true}
	rowOf := invertRowIDs(g.In.RowIDs)
	for _, l := range order {
		for _, u := range g.In.Row(int(rowOf[f.Locals[l]])) {
			in.Nbrs = append(in.Nbrs, f.LocalOf[u]-1)
		}
		in.Offsets = append(in.Offsets, int64(len(in.Nbrs)))
	}
	return &graph.Graph{N: len(f.Locals), M: m, NumEdgeTypes: 1, In: in}
}

func computeStats(g *graph.Graph, p *Partition, mode string) Stats {
	st := Stats{
		K: p.K, Vertices: p.N, Edges: p.M, Mode: mode, RowCost: RowCost,
	}
	rawCut := 0
	for e := 0; e < g.M; e++ {
		if p.Owner[g.Srcs[e]] != p.Owner[g.Dsts[e]] {
			rawCut++
		}
	}
	totalLocals := 0
	var maxUnits, minUnits, sumUnits float64
	for s, f := range p.Frags {
		totalLocals += len(f.Locals)
		units := float64(f.G.M) + RowCost*float64(f.Owned)
		sumUnits += units
		if s == 0 || units > maxUnits {
			maxUnits = units
		}
		if s == 0 || units < minUnits {
			minUnits = units
		}
	}
	st.MirrorFlows = totalLocals - p.N
	st.Replication = float64(totalLocals) / float64(p.N)
	if p.M > 0 {
		st.EdgeCutRatio = float64(st.MirrorFlows) / float64(p.M)
		st.RawCutFrac = float64(rawCut) / float64(p.M)
	}
	st.MaxShardUnits = maxUnits
	st.MinShardUnits = minUnits
	if mean := sumUnits / float64(p.K); mean > 0 {
		st.Balance = maxUnits / mean
	}
	return st
}
