package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Sentinel errors of the delta path.
var (
	// ErrStaleGeneration means the delta's ParentGen does not match the
	// engine's current generation: another delta or swap won the race.
	// Clients should refetch the generation and rebase.
	ErrStaleGeneration = errors.New("serve: delta parent generation is stale")
	// ErrDeltaUnsupported means the snapshot cannot take deltas
	// (heterogeneous R-GCN graphs carry per-edge types the chunked CSR
	// does not track).
	ErrDeltaUnsupported = errors.New("serve: snapshot does not support deltas")
)

// FeatureUpdate replaces one vertex's feature row.
type FeatureUpdate struct {
	Node int32     `json:"node"`
	Row  []float32 `json:"row"`
}

// Delta is one batch of graph mutations addressed at a parent generation.
// Structural fields follow graph.Delta semantics (removals apply first,
// vertex removal isolates); Features then overwrites rows of the child —
// including rows of vertices added by this same delta.
type Delta struct {
	ParentGen      uint64          `json:"parent_gen"`
	AddVertices    int             `json:"add_vertices,omitempty"`
	RemoveVertices []int32         `json:"remove_vertices,omitempty"`
	AddEdges       []graph.Edge    `json:"add_edges,omitempty"`
	RemoveEdges    []graph.Edge    `json:"remove_edges,omitempty"`
	Features       []FeatureUpdate `json:"features,omitempty"`
}

// DeltaOptions steers the embedding recompute of ApplyDelta. A nil
// options (or nil Model) skips embedding work entirely.
type DeltaOptions struct {
	// Model whose cached embeddings should carry over to the child.
	Model *Model
	// FrontierLimit is the dirty-frontier fraction of N above which the
	// incremental patch falls back to a full forward (default 0.05; ≥1
	// effectively never falls back).
	FrontierLimit float64
	// Pool recycles intermediate tensors.
	Pool *tensor.Pool
}

// DeltaStats reports what one ApplyDelta did.
type DeltaStats struct {
	Gen         uint64 `json:"gen"` // filled by the engine on publish
	Fingerprint uint64 `json:"-"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// Touched counts the seed vertices (structural endpoints plus feature
	// updates); Frontier the k-hop dirty set actually recomputed.
	Touched  int `json:"touched"`
	Frontier int `json:"frontier"`
	// Recompute is how embeddings carried over: "incremental" (k-hop
	// patch), "full" (frontier too large or kernel dispatch unstable),
	// "deferred" (no settled parent state to patch; first batch pays),
	// or "none" (embedding cache not in use).
	Recompute string `json:"recompute"`
	// Structural-sharing counters. RemappedChunks is always 0: edge ids
	// are stable, so no chunk is shared with rewritten ids. It stays only
	// because the repository benchmark's harness still reads it.
	SharedChunks, CopiedChunks, RemappedChunks int
	SharedPages, CopiedPages                   int
	ApplyNs, RecomputeNs                       int64
}

// ApplyDelta builds the child snapshot for delta d: chunked-CSR apply
// (clean chunks shared), paged feature apply (clean pages shared),
// copy-on-write patches of every normalizer the parent had computed, and
// — when opt.Model has settled cached embeddings — an incremental
// recompute of only the dirty k-hop frontier, bitwise-identical to a full
// forward on the child. Everything a reader of the parent can see (graph,
// features, normalizers, logits) is left untouched; the one thing handed
// over is the embed state's aux, which only delta writers read: the child
// takes it from the parent and overwrites the dirty rows in place, so a
// second delta on the same parent (a fork) recomputes in full. Generation
// arithmetic (ParentGen) is the engine's job. Each stage is an obs span:
// serve/delta-graph, serve/delta-feat, serve/delta-recompute.
func ApplyDelta(parent *Snapshot, d *Delta, opt *DeltaOptions) (*Snapshot, *DeltaStats, error) {
	if parent.typed() {
		return nil, nil, ErrDeltaUnsupported
	}
	start := time.Now()
	sp := obs.Begin("serve", "delta-graph")
	pdg, err := parent.deltaGraph()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDeltaUnsupported, err)
	}
	ndg, ast, err := pdg.Apply(&graph.Delta{AddVertices: d.AddVertices,
		RemoveVertices: d.RemoveVertices, AddEdges: d.AddEdges, RemoveEdges: d.RemoveEdges})
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = obs.Begin("serve", "delta-feat")
	nfs, sharedP, copiedP, err := parent.featStore().Apply(d.Features, d.AddVertices)
	if err != nil {
		return nil, nil, err
	}

	child := &Snapshot{
		n: ndg.N(), d: nfs.Dim(), numRel: 1,
		dg: ndg, fs: nfs,
		fp: chainFingerprint(parent.fp, d),
	}
	patchNorms(parent, child, ast.Touched)
	sp.End()

	st := &DeltaStats{
		Fingerprint: child.fp,
		N:           child.n, M: ndg.M(),
		Recompute:    "none",
		SharedChunks: ast.SharedChunks,
		CopiedChunks: ast.CopiedChunks,
		SharedPages:  sharedP,
		CopiedPages:  copiedP,
	}
	seed := withUpdated(ast.Touched, d.Features) // the 0-hop dirty set
	st.Touched = len(seed)
	st.ApplyNs = time.Since(start).Nanoseconds()

	if opt != nil && opt.Model != nil {
		rstart := time.Now()
		sp = obs.Begin("serve", "delta-recompute")
		st.Recompute = recomputeEmbeddings(parent, child, d, opt, seed, st)
		sp.End()
		st.RecomputeNs = time.Since(rstart).Nanoseconds()
		obs.Add("serve", "delta-recompute", "frontier_rows", int64(st.Frontier))
		obs.Add("serve", "delta-recompute", st.Recompute, 1)
	}
	return child, st, nil
}

// withUpdated returns the sorted union of ids and the feature-updated
// vertices.
func withUpdated(ids []int32, ups []FeatureUpdate) []int32 {
	out := slices.Clone(ids)
	for _, u := range ups {
		out = append(out, u.Node)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// recomputeEmbeddings carries the model's cached embeddings from parent
// to child and returns the mode used.
func recomputeEmbeddings(parent, child *Snapshot, d *Delta, opt *DeltaOptions, seed []int32, st *DeltaStats) string {
	m := opt.Model
	key := m.planKey()
	ps := parent.embedPeek(key)
	if ps == nil {
		// Nothing settled to patch: leave the slot cold; the first batch
		// on the child computes (and caches) the full forward lazily.
		return "deferred"
	}
	limit := opt.FrontierLimit
	if limit <= 0 {
		limit = 0.05
	}
	maxDirty := int(limit * float64(child.n))

	full := func() string {
		if _, err := child.EnsureEmbeddings(m, &ForwardEnv{Pool: opt.Pool}); err != nil {
			return "deferred" // failed builds stay visible to the serving path
		}
		return "full"
	}

	if !m.SupportsIncremental() || !kernelStable(m, parent.n, child.n) {
		return full()
	}
	// One dirty set per stage: a change spreads one hop per stage.
	sets, reach := make([][]int32, len(m.prog.Stages)), seed
	for l := range sets {
		reach = child.dg.ExpandOut(reach)
		sets[l] = reach
		st.Frontier = len(reach)
		if len(reach) > maxDirty {
			return full()
		}
	}
	// From here on the patch owns aux: a failure below drops it half
	// written, and the child (like any later fork of parent) goes full.
	aux := parent.takeAux(ps)
	if aux == nil {
		return full()
	}
	if child.n != parent.n {
		for k, t := range aux {
			aux[k] = patchRows(t, child.n, nil, nil)
		}
	}
	// fd is the rows whose raw features differ from the parent: explicit
	// updates plus the vertices this delta created (seed's tail) — fresh
	// zero rows the parent never had, whose dense products must be
	// materialized even though they compute to zero-times-weight.
	created, _ := slices.BinarySearch(seed, int32(parent.n))
	fd := withUpdated(seed[created:], d.Features)

	// The dirty-row driver of the program runner: the first stage's dense
	// products cover fd, each later stage's the rows the previous one
	// recomputed (MatMulRowsLike keeps them bitwise rows of the full-size
	// product), and each stage's plan walks its frontier.
	env := &ForwardEnv{Pool: opt.Pool}
	setNorms(m.prog, env, child, nil)
	r := &run{m: m, env: env, fullRows: child.n, vals: aux, h: child.fs.Gather(fd)}
	hops := dirtyFrontiers(child.dg, fd, sets)
	for l := range hops {
		if err := r.step(&hops[l]); err != nil {
			return full()
		}
	}
	child.seedEmbeddings(key, &embedState{logits: patchRows(ps.logits, child.n, hops[len(hops)-1].rows, r.h), aux: aux})
	return "incremental"
}

// kernelStable reports whether every dense product of the model keeps its
// MatMul dispatch path across the parent→child row-count change; cached
// rows are only bitwise-valid in the child when it does.
func kernelStable(m *Model, pn, cn int) bool {
	return !slices.ContainsFunc(m.prog.Stages, func(s program.Stage) bool {
		return slices.ContainsFunc(s.Dense, func(d program.Dense) bool {
			w := m.weights[d.W]
			return !tensor.MatMulSameKernel(pn, cn, w.Rows(), w.Cols())
		})
	})
}

// setRows overwrites the given rows of t with vals ([len(rows), C]).
func setRows(t *tensor.Tensor, rows []int32, vals *tensor.Tensor) {
	for i, v := range rows {
		copy(t.Row(int(v)), vals.Row(i))
	}
}

// patchRows builds the child-size copy of a cached [parentN, C] tensor
// with the given rows overwritten by vals. Rows past the parent start
// zero (new vertices must therefore always be in rows). It is how logits
// — which readers of the parent still hold — carry over, and how aux
// grows when a delta adds vertices. With nothing to change and no growth
// the parent tensor is shared as-is.
func patchRows(parent *tensor.Tensor, newN int, rows []int32, vals *tensor.Tensor) *tensor.Tensor {
	if len(rows) == 0 && parent.Rows() == newN {
		return parent
	}
	out := tensor.New(newN, parent.Cols())
	copy(out.Data(), parent.Data())
	setRows(out, rows, vals)
	return out
}

// dirtyFrontiers builds every stage's frontier from the sorted, nested
// per-stage dirty sets (sets[l] is what l+1 hops reach) with one copy of
// the in-lists: the rows are sets[0] followed by what each later hop
// added, so stage l's graph is a prefix of stage l+1's. Each stage's
// input is dirty where the stage before recomputed: at first, at fd.
func dirtyFrontiers(dg *graph.DeltaGraph, fd []int32, sets [][]int32) []frontier {
	last := sets[len(sets)-1]
	rows := append(make([]int32, 0, len(last)), sets[0]...)
	for l := 1; l < len(sets); l++ {
		prev, i := sets[l-1], 0
		for _, v := range sets[l] {
			if i < len(prev) && prev[i] == v {
				i++
			} else {
				rows = append(rows, v)
			}
		}
	}
	in := dg.In()
	offsets := make([]int64, len(rows)+1)
	for r, v := range rows {
		offsets[r+1] = offsets[r] + int64(in.Degree(v))
	}
	m := int(offsets[len(rows)])
	// ident serves as both the edge ids and the row ids: each is 0, 1, 2, …
	nbrs, ident := make([]int32, 0, m), make([]int32, max(m, len(rows)))
	for _, v := range rows {
		row, _ := in.Row(v)
		nbrs = append(nbrs, row...)
	}
	for i := range ident {
		ident[i] = int32(i)
	}
	hops := make([]frontier, len(sets))
	for l, set := range sets {
		k := len(set)
		mk := int(offsets[k])
		hops[l] = frontier{fd, rows[:k], &graph.Graph{N: dg.N(), M: mk, NumEdgeTypes: 1, In: graph.CSR{
			Offsets: offsets[:k+1], Nbrs: nbrs[:mk], EdgeIDs: ident[:mk], RowIDs: ident[:k],
		}}}
		fd = rows[:k]
	}
	return hops
}

// patchNorms carries every vertex normalizer the parent had already
// computed to the child, re-evaluating only the touched vertices' entries
// (degree changes) — bitwise-identical to computing the child's from
// scratch, since the per-vertex formula (program.Norm.At) is shared.
func patchNorms(parent, child *Snapshot, touched []int32) {
	parent.normMu.Lock()
	cached := parent.norms
	parent.normMu.Unlock()
	for ref, pt := range cached[:program.NormEdgeRel] {
		if pt == nil {
			continue
		}
		csr := child.dg.In()
		if program.Norm(ref).Out() {
			csr = child.dg.Out()
		}
		out := tensor.New(child.n, 1)
		copy(out.Data(), pt.Data())
		for _, v := range touched {
			var x float32
			if d := csr.Degree(v); d > 0 {
				x = program.Norm(ref).At(d)
			}
			out.Set(int(v), 0, x)
		}
		child.norms[ref] = out
	}
}

// chainFingerprint derives the child fingerprint from the parent's plus
// the full delta payload, so fingerprints stay unique and deterministic
// along any delta chain without rehashing the whole graph.
func chainFingerprint(parent uint64, d *Delta) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], parent)
	h.Write(b[:])
	w32 := func(v int32) {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	w32(int32(d.AddVertices))
	w32(int32(len(d.RemoveVertices)))
	for _, v := range d.RemoveVertices {
		w32(v)
	}
	w32(int32(len(d.AddEdges)))
	for _, e := range d.AddEdges {
		w32(e.Src)
		w32(e.Dst)
	}
	w32(int32(len(d.RemoveEdges)))
	for _, e := range d.RemoveEdges {
		w32(e.Src)
		w32(e.Dst)
	}
	w32(int32(len(d.Features)))
	for _, u := range d.Features {
		w32(u.Node)
		for _, x := range u.Row {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(x))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}
