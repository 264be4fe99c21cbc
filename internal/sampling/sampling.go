// Package sampling implements mini-batch neighbour sampling for GNN
// training, the substrate of sampling-based systems like Euler and
// AliGraph that the paper positions Seastar as a training engine for
// (§8). A Sampler draws a fixed fan-out of in-neighbours per layer from
// seed vertices, producing an induced Batch subgraph with compact ids;
// compiled Seastar programs then run on the batch graph unchanged.
//
// A batch holds only what the model reads, given one fan-out entry per
// aggregating layer. Vertices are numbered breadth-first, hop by hop, and
// edges by in-CSR slot, so a sample with FanOut[:d] is a prefix of the
// FanOut sample drawn with the same seed: the same draws, the first d
// hops. The batch records where each hop ends (HopVertices, HopEdges).
//
// The batch subgraph carries one in-CSR and no out-CSR: a forward pass
// walks in-edges only, and a normalizer reading out-degrees counts the
// edge list. Its rows are hop-major, each hop's rows in degree order
// (§6.3.3, graph.FromInEdges), built straight from the drawn edges so no
// later stage sorts them. A vertex's in-edges are all drawn in the hop
// after the one that reached it, so the vertices within k hops are the
// first rows and their in-edges the first slots. A model of L layers
// needs layer l's output only within L−1−l hops of the seeds: Block cuts
// each layer its block, a row prefix of the one in-CSR
// (graph.Graph.DstPrefix), and a layer past the sampled hops gets the
// whole batch.
package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Sampler draws layered neighbourhoods from a base graph. It holds no
// RNG: every draw takes the caller's (SampleRNG) or one seeded per call
// (SampleSeeded, SampleAs), and epoch plans derive theirs from the base
// seed (PlanEpoch).
type Sampler struct {
	G *graph.Graph
	// FanOut[l] bounds the in-neighbours sampled per vertex at layer l
	// (0 = the seeds' layer). len(FanOut) = number of GNN layers: a hop
	// past the model's last layer feeds no row it reads.
	FanOut []int

	baseSeed int64

	rowOnce sync.Once
	rowOf   []int32

	mu   sync.Mutex
	free []*scratch // idle scratches, one per call that ever ran at once
}

// Stream tags name the derived RNG streams so their seeds cannot collide
// with per-batch seeds (which use epoch ≥ 0, batch ≥ 0): epoch plans
// shuffle under streamShuffle, and SampleAs draws under streamSample.
const (
	streamShuffle = -1
	streamSample  = -2
)

// NewSampler creates a sampler over g.
func NewSampler(g *graph.Graph, fanOut []int, seed int64) (*Sampler, error) {
	if len(fanOut) == 0 {
		return nil, fmt.Errorf("sampling: empty fan-out")
	}
	for _, f := range fanOut {
		if f < 1 {
			return nil, fmt.Errorf("sampling: fan-out must be ≥ 1, got %d", f)
		}
	}
	return &Sampler{G: g, FanOut: fanOut, baseSeed: seed}, nil
}

// BaseSeed returns the seed the sampler was constructed with; pipelined
// trainers combine it with (epoch, batch) via DeriveSeed.
func (s *Sampler) BaseSeed() int64 { return s.baseSeed }

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically mixes (base, epoch, batch) into an
// independent RNG seed. Pipelined training samples batch k of epoch e
// with DeriveSeed(base, e, k) regardless of which worker draws it or in
// what order, so a pipelined run is bitwise-identical to a serial one.
// Negative epochs are reserved for the sampler's internal streams.
func DeriveSeed(base int64, epoch, batch int) int64 {
	z := splitmix64(uint64(base))
	z = splitmix64(z ^ uint64(int64(epoch)))
	z = splitmix64(z ^ uint64(int64(batch)))
	return int64(z)
}

// Batch is one sampled subgraph.
type Batch struct {
	// Sub is the induced subgraph over the sampled vertices, with
	// compact ids 0..n-1: in-CSR only, hop-major (package doc).
	Sub *graph.Graph
	// Vertices maps compact ids back to base-graph ids.
	Vertices []int32
	// SeedCount is the number of distinct seeds; they occupy compact ids
	// 0..SeedCount-1 in order of first appearance.
	SeedCount int
	// HopVertices[k] counts the vertices within k hops of the seeds and
	// HopEdges[k] the edges drawn in hops 1..k, for k = 0..len(FanOut):
	// HopVertices[0] is SeedCount, HopEdges[0] is 0. Hops past an empty
	// frontier repeat the counts of the last one drawn.
	HopVertices, HopEdges []int
}

// SampleSeeded draws one batch with a fresh RNG seeded by seed. This is
// the entry point for pipeline workers: the batch depends only on (graph,
// fan-out, seeds, seed).
func (s *Sampler) SampleSeeded(seeds []int32, seed int64) (*Batch, error) {
	return s.SampleRNG(seeds, rand.New(rand.NewSource(seed)))
}

// SampleAs draws the batch a sampler seeded with seed draws first from
// its neighbour-draw stream, the one derived from seed under
// streamSample, without building that sampler: one RNG per call, and the
// row index this sampler already holds. Serving keeps one sampler per
// published graph and calls this per request with the request's seed.
func (s *Sampler) SampleAs(seeds []int32, seed int64) (*Batch, error) {
	return s.SampleSeeded(seeds, DeriveSeed(seed, streamSample, 0))
}

// SampleRNG draws one batch using the caller-supplied RNG. It is safe to
// call concurrently from multiple goroutines as long as each goroutine
// passes its own RNG (the graph and row index are read-only; every call
// takes a scratch of its own).
//
// Each distinct seed is expanded once: it draws at most FanOut[0]
// in-edges however often it is listed. The returned subgraph's in-CSR is
// already hop-major (graph.FromInEdges).
func (s *Sampler) SampleRNG(seeds []int32, rng *rand.Rand) (*Batch, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sampling: no seeds")
	}
	for _, v := range seeds {
		if v < 0 || int(v) >= s.G.N {
			return nil, fmt.Errorf("sampling: seed %d out of range", v)
		}
	}
	sc := s.takeScratch()
	defer s.putScratch(sc)
	for _, v := range seeds {
		sc.add(v)
	}
	seedCount := len(sc.verts) // distinct seeds: a repeated one keeps its first id
	hopVerts := make([]int, 1, len(s.FanOut)+1)
	hopEdges := make([]int, 1, len(s.FanOut)+1)
	hopVerts[0] = seedCount

	// CSR rows are permuted when the base graph is degree-sorted; build
	// a vertex→row index once.
	rowOf := s.rowIndex()

	frontier := append(sc.frontier[:0], sc.verts...)
	next := sc.next[:0]
	for _, fan := range s.FanOut {
		for _, v := range frontier {
			nbrs := s.G.In.Row(int(rowOf[v]))
			dst := sc.slot[v] - 1
			for _, i := range sc.draw(rng, len(nbrs), fan) {
				u := nbrs[i]
				if sc.slot[u] == 0 {
					next = append(next, u)
				}
				sc.srcs = append(sc.srcs, sc.add(u))
				sc.dsts = append(sc.dsts, dst)
			}
		}
		// A hop past an empty frontier draws nothing and repeats the counts.
		hopVerts = append(hopVerts, len(sc.verts))
		hopEdges = append(hopEdges, len(sc.srcs))
		frontier, next = next, frontier[:0]
	}
	sc.frontier, sc.next = frontier, next

	vertices := slices.Clone(sc.verts)
	sub, err := graph.FromInEdges(len(vertices), sc.srcs, sc.dsts, hopVerts)
	if err != nil {
		return nil, err
	}
	return &Batch{Sub: sub, Vertices: vertices, SeedCount: seedCount, HopVertices: hopVerts, HopEdges: hopEdges}, nil
}

// Block returns the graph a layer walks whose output the batch's next k
// layers read (k = 0 for the last layer): its destinations are the
// vertices within k hops of the seeds, its edges those of hops 1..k+1 and
// its sources (N) the vertices within k+1 hops — a row prefix of Sub
// (graph.Graph.DstPrefix). With k ≥ len(FanOut), and wherever the
// frontier emptied before hop k, it is the whole of Sub.
func (b *Batch) Block(k int) (*graph.Graph, error) {
	if k < 0 {
		return nil, fmt.Errorf("sampling: block %d hops deep", k)
	}
	if k+1 >= len(b.HopVertices) || b.HopVertices[k] == b.Sub.N {
		return b.Sub, nil
	}
	return b.Sub.DstPrefix(b.HopVertices[k], b.HopVertices[k+1])
}

// scratch is one SampleRNG call's working memory, reused across calls.
// slot[v] is vertex v's compact id plus one, 0 while v is unreached; it
// is the only N-sized array, and putScratch clears just the slots the
// call touched (verts), so a call costs what it reaches, not N.
type scratch struct {
	slot           []int32
	verts          []int32 // compact id → vertex, the touched list
	frontier, next []int32
	srcs, dsts     []int32 // the batch's edges, in compact ids
	idx            []int32 // draw's result
	moved          []moved // draw's displaced permutation entries
}

// moved records that a partial Fisher–Yates permutation holds val at pos.
type moved struct{ pos, val int32 }

// add returns v's compact id, numbering v next if it is new.
func (sc *scratch) add(v int32) int32 {
	if id := sc.slot[v]; id != 0 {
		return id - 1
	}
	sc.verts = append(sc.verts, v)
	id := int32(len(sc.verts))
	sc.slot[v] = id
	return id - 1
}

// draw picks min(fan, n) distinct indices from [0, n) uniformly, by a
// partial Fisher–Yates shuffle of the identity permutation. Only the
// entries the shuffle displaces are stored, so a draw costs O(fan²), not
// O(n), and it makes the same rng.Intn calls, with the same results, as
// shuffling a materialized permutation. The result is valid until the
// next draw.
func (sc *scratch) draw(rng *rand.Rand, n, fan int) []int32 {
	idx := sc.idx[:0]
	if fan >= n {
		for i := 0; i < n; i++ {
			idx = append(idx, int32(i))
		}
		sc.idx = idx
		return idx
	}
	mv := sc.moved[:0]
	for i := 0; i < fan; i++ {
		j := int32(i + rng.Intn(n-i))
		vi, _ := lookup(mv, int32(i))
		vj, k := lookup(mv, j)
		// Swap perm[i] and perm[j]. Position i is final and never read
		// again, so only perm[j] = vi needs recording.
		idx = append(idx, vj)
		if k >= 0 {
			mv[k].val = vi
		} else if j != int32(i) {
			mv = append(mv, moved{j, vi})
		}
	}
	sc.idx, sc.moved = idx, mv
	return idx
}

// lookup returns perm[pos] and its index in mv (-1 when pos still holds
// itself).
func lookup(mv []moved, pos int32) (int32, int) {
	for k := range mv {
		if mv[k].pos == pos {
			return mv[k].val, k
		}
	}
	return pos, -1
}

// takeScratch hands the caller a scratch no other call is using.
func (s *Sampler) takeScratch() *scratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.free); k > 0 {
		sc := s.free[k-1]
		s.free = s.free[:k-1]
		return sc
	}
	return &scratch{slot: make([]int32, s.G.N)}
}

// putScratch clears sc's touched slots and keeps it for the next call.
// The free list never holds more scratches than calls ever ran at once.
func (s *Sampler) putScratch(sc *scratch) {
	for _, v := range sc.verts {
		sc.slot[v] = 0
	}
	sc.verts, sc.srcs, sc.dsts = sc.verts[:0], sc.srcs[:0], sc.dsts[:0]
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// rowIndex maps vertex id → CSR row of the in-CSR. The graph is
// immutable, so the index is built once and shared by every Sample call
// (including concurrent pipeline workers).
func (s *Sampler) rowIndex() []int32 {
	s.rowOnce.Do(func() {
		idx := make([]int32, s.G.N)
		for row, v := range s.G.In.RowIDs {
			idx[v] = int32(row)
		}
		s.rowOf = idx
	})
	return s.rowOf
}

// GatherFeatures copies the batch's rows out of a base [N, d] tensor.
func (b *Batch) GatherFeatures(base *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(len(b.Vertices), base.Cols())
	b.GatherFeaturesInto(out, base)
	return out
}

// GatherFeaturesInto copies the batch's rows of base into dst, which
// must be [len(Vertices), base.Cols()]. Pipelines pass pooled tensors
// here so the steady-state gather stage allocates nothing.
func (b *Batch) GatherFeaturesInto(dst, base *tensor.Tensor) {
	for i, v := range b.Vertices {
		copy(dst.Row(i), base.Row(int(v)))
	}
}

// PlanEpoch returns the seed batches for one epoch, shuffled by an RNG
// derived from (baseSeed, epoch) alone. It is stateless: any caller — a
// resumed checkpoint, a prefetching pipeline, a serial reference run —
// gets the identical plan for the same epoch.
func (s *Sampler) PlanEpoch(epoch, batchSize int) ([][]int32, error) {
	if batchSize < 1 {
		return nil, fmt.Errorf("sampling: batch size must be ≥ 1")
	}
	if epoch < 0 {
		return nil, fmt.Errorf("sampling: epoch must be ≥ 0, got %d", epoch)
	}
	rng := rand.New(rand.NewSource(DeriveSeed(s.baseSeed, streamShuffle, epoch+1)))
	return slicePerm(rng.Perm(s.G.N), batchSize), nil
}

func slicePerm(perm []int, batchSize int) [][]int32 {
	var out [][]int32
	for lo := 0; lo < len(perm); lo += batchSize {
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		batch := make([]int32, hi-lo)
		for i, p := range perm[lo:hi] {
			batch[i] = int32(p)
		}
		out = append(out, batch)
	}
	return out
}
