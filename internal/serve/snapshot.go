// Package serve is the concurrent inference layer on top of the Seastar
// compile pipeline: immutable graph snapshots swapped copy-on-write, a
// plan cache that compiles each (model, feature-dim, relations)
// combination exactly once behind a singleflight guard, and a request
// engine with bounded admission, micro-batching, deadlines and graceful
// drain. Graph deltas build child snapshots that structurally share
// unchanged CSR chunks and feature pages with their parent and patch —
// rather than recompute — the cached normalizers and embeddings.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"seastar/internal/graph"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Snapshot is an immutable (graph, features) pair. Once constructed it is
// never mutated: graph updates build a new Snapshot — either from scratch
// (SwapGraph) or as a structurally-shared delta child (ApplyDelta) — and
// atomically swap it into the engine, so forwards already in flight keep
// reading the old one. Derived normalizers and cached embeddings are
// computed lazily, at most once, and cached on the snapshot — safe
// because they are pure functions of the frozen graph; delta children
// inherit them patched copy-on-write instead of recomputing. The one
// exception no reader can observe: the embed state's aux (see embedState)
// is handed to the first delta child instead of copied.
type Snapshot struct {
	// G and Feat are the flat root forms. They are set on snapshots built
	// by NewSnapshot and nil on delta children, whose flat forms
	// materialize lazily — use Graph() and Features() to read either kind.
	G    *graph.Graph
	Feat *tensor.Tensor

	n, d, numRel int
	fp           uint64

	// Chunked forms. Children always carry both; roots build them lazily
	// on the first delta.
	dg     *graph.DeltaGraph
	dgOnce sync.Once
	dgErr  error
	fs     *FeatStore
	fsOnce sync.Once

	// Lazily flattened forms for delta children.
	flatGOnce sync.Once
	flatG     atomic.Pointer[graph.Graph]
	flatFOnce sync.Once
	flatF     atomic.Pointer[tensor.Tensor]

	// Cached normalizers by ref. A mutex (not sync.Once) so delta
	// construction can pre-seed patched values before the snapshot is
	// published.
	normMu sync.Mutex
	norms  [program.NumNorms]*tensor.Tensor

	// Cached embeddings per structural plan key (EmbedCache serving mode):
	// the final logits and the model's per-layer dense products (aux).
	// Delta children are pre-seeded with incrementally patched states.
	embMu sync.Mutex
	emb   map[PlanKey]*embedEntry
}

// NewSnapshot freezes a graph and its vertex features into a servable
// snapshot. The graph is degree-sorted (the §6.3.3 preprocessing) unless
// its CSRs already are; vertex ids are stable either way because the CSR
// keeps row-id indirection.
func NewSnapshot(g *graph.Graph, feat *tensor.Tensor) (*Snapshot, error) {
	if g == nil || feat == nil {
		return nil, fmt.Errorf("serve: snapshot needs a graph and features")
	}
	if feat.Rows() != g.N {
		return nil, fmt.Errorf("serve: %d feature rows for %d vertices", feat.Rows(), g.N)
	}
	if !g.In.Sorted {
		g = g.SortByDegree()
	}
	return &Snapshot{
		G: g, Feat: feat,
		n: g.N, d: feat.Cols(), numRel: g.NumEdgeTypes,
		fp: fingerprint(g, feat),
	}, nil
}

// Graph returns the flat graph form: the root graph, or the delta chain
// flattened (materialized at most once).
func (s *Snapshot) Graph() *graph.Graph {
	if s.G != nil {
		return s.G
	}
	s.flatGOnce.Do(func() { s.flatG.Store(s.dg.Flatten()) })
	return s.flatG.Load()
}

// Features returns the dense [N, D] feature matrix (materialized at most
// once for delta children).
func (s *Snapshot) Features() *tensor.Tensor {
	if s.Feat != nil {
		return s.Feat
	}
	s.flatFOnce.Do(func() { s.flatF.Store(s.fs.Flat()) })
	return s.flatF.Load()
}

// NumVertices returns the vertex count without materializing anything.
func (s *Snapshot) NumVertices() int { return s.n }

// NumEdges returns the edge count without materializing anything.
func (s *Snapshot) NumEdges() int {
	if s.dg != nil {
		return s.dg.M()
	}
	return s.G.M
}

// FeatDim returns the feature width.
func (s *Snapshot) FeatDim() int { return s.d }

// numRelations returns the edge-type count for the plan key (≥1).
func (s *Snapshot) numRelations() int {
	if s.numRel < 1 {
		return 1
	}
	return s.numRel
}

// typed reports whether the snapshot carries edge types (R-GCN graphs);
// such snapshots reject deltas.
func (s *Snapshot) typed() bool { return s.G != nil && s.G.EdgeTypes != nil }

// deltaGraph returns the chunked CSR form, building it once for roots.
func (s *Snapshot) deltaGraph() (*graph.DeltaGraph, error) {
	s.dgOnce.Do(func() {
		if s.dg == nil {
			s.dg, s.dgErr = graph.FromGraph(s.G)
		}
	})
	return s.dg, s.dgErr
}

// featStore returns the paged feature form, wrapping the root tensor once.
func (s *Snapshot) featStore() *FeatStore {
	s.fsOnce.Do(func() {
		if s.fs == nil {
			s.fs = NewFeatStore(s.Feat)
		}
	})
	return s.fs
}

// Fingerprint identifies the snapshot's structure and features. Delta
// children chain their fingerprint from the parent's plus the delta
// payload, so every generation is distinct and deterministic.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// fingerprint hashes the edge list, edge types and feature shape with
// FNV-1a. Feature values are sampled (first row plus a stride) rather
// than hashed in full: fingerprints separate snapshots in metrics and
// adaptation keys; compiled plans depend only on shapes.
func fingerprint(g *graph.Graph, feat *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w32 := func(v int32) {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	w32(int32(g.N))
	w32(int32(g.M))
	for i := 0; i < g.M; i++ {
		w32(g.Srcs[i])
		w32(g.Dsts[i])
	}
	if g.EdgeTypes != nil {
		w32(int32(g.NumEdgeTypes))
		for _, t := range g.EdgeTypes {
			w32(t)
		}
	}
	w32(int32(feat.Rows()))
	w32(int32(feat.Cols()))
	stride := feat.Size()/64 + 1
	for i := 0; i < feat.Size(); i += stride {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(feat.At1(i)))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// normFor returns the normalizer ref names, computed at most once (a
// per-edge one needs edge types, which delta children never carry).
func (s *Snapshot) normFor(ref program.Norm) *tensor.Tensor {
	s.normMu.Lock()
	defer s.normMu.Unlock()
	if s.norms[ref] == nil {
		switch {
		case ref == program.NormEdgeRel:
			s.norms[ref] = ref.Of(s.Graph(), tensor.New)
		case s.G != nil:
			s.norms[ref] = ref.Vertex(s.G, tensor.New)
		default:
			s.norms[ref] = ref.Vertex(s.dg, tensor.New)
		}
	}
	return s.norms[ref]
}

// Norm returns the cached 1/in-degree GCN normalizer.
func (s *Snapshot) Norm() *tensor.Tensor { return s.normFor(program.NormInDeg) }

// embedEntry is the singleflight slot for one model's cached embeddings.
// done flips (with release semantics) only after state/err settle, so
// embedPeek can inspect the slot without blocking on an in-flight build.
type embedEntry struct {
	once  sync.Once
	done  atomic.Bool
	state *embedState
	err   error
}

// embedState is a settled embedding computation, split by who reads it.
// logits is what every reader of the generation gathers from: immutable
// once settled. aux holds the named dense products only the delta writer
// reads (the forward's run.vals; nil for a model that is not
// incremental). It is single-owner working
// state: the first incremental delta on this snapshot takes it (takeAux),
// overwrites the dirty rows in place and seeds its child with it, leaving
// this state with logits alone.
type embedState struct {
	logits *tensor.Tensor
	aux    map[string]*tensor.Tensor // guarded by Snapshot.embMu once settled
}

func (s *Snapshot) embedSlot(key PlanKey) *embedEntry {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	if s.emb == nil {
		s.emb = make(map[PlanKey]*embedEntry)
	}
	e, ok := s.emb[key]
	if !ok {
		e = &embedEntry{}
		s.emb[key] = e
	}
	return e
}

// EnsureEmbeddings returns the cached full-graph logits for model m,
// computing them (with per-layer aux state) exactly once per snapshot no
// matter how many batches race on a cold cache.
func (s *Snapshot) EnsureEmbeddings(m *Model, env *ForwardEnv) (*tensor.Tensor, error) {
	e := s.embedSlot(m.planKey())
	e.once.Do(func() {
		env.G = s.Graph()
		env.Feat = s.Features()
		setNorms(m.prog, env, s, nil)
		e.state, e.err = m.runAll(env)
		e.done.Store(true)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.state.logits, nil
}

// embedPeek returns the settled embedding state for key, or nil if it is
// uncomputed, still in flight, or failed. It never blocks. The state's
// logits may be read freely; its aux only through takeAux.
func (s *Snapshot) embedPeek(key PlanKey) *embedState {
	s.embMu.Lock()
	e, ok := s.emb[key]
	s.embMu.Unlock()
	if !ok || !e.done.Load() || e.err != nil {
		return nil
	}
	return e.state
}

// takeAux hands st's aux tensors (st settled on this snapshot) to the
// caller — the delta writer, which mutates them — and leaves st with
// logits only. It returns nil when there is nothing to take: an arch
// without aux, or a delta that already took it (a forked chain).
func (s *Snapshot) takeAux(st *embedState) map[string]*tensor.Tensor {
	s.embMu.Lock()
	defer s.embMu.Unlock()
	aux := st.aux
	st.aux = nil
	return aux
}

// seedEmbeddings installs a pre-computed embedding state (delta children,
// before publication).
func (s *Snapshot) seedEmbeddings(key PlanKey, st *embedState) {
	e := &embedEntry{state: st}
	e.once.Do(func() {})
	e.done.Store(true)
	s.embMu.Lock()
	if s.emb == nil {
		s.emb = make(map[PlanKey]*embedEntry)
	}
	s.emb[key] = e
	s.embMu.Unlock()
}
