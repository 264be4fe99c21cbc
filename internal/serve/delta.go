package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/obs"
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
	// Profile is the simulated device the recompute charges.
	Profile device.Profile
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
	// Structural-sharing counters.
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
		Recompute:      "none",
		SharedChunks:   ast.SharedChunks,
		CopiedChunks:   ast.CopiedChunks,
		RemappedChunks: ast.RemappedChunks,
		SharedPages:    sharedP,
		CopiedPages:    copiedP,
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
		env := &ForwardEnv{Dev: device.New(opt.Profile), Pool: opt.Pool}
		if _, err := child.EnsureEmbeddings(m, env); err != nil {
			return "deferred" // failed builds stay visible to the serving path
		}
		return "full"
	}

	if !m.SupportsIncremental() || !kernelStable(m, parent.n, child.n) {
		return full()
	}
	d1 := child.dg.ExpandOut(seed)
	if len(d1) > maxDirty {
		st.Frontier = len(d1)
		return full()
	}
	d2 := child.dg.ExpandOut(d1)
	st.Frontier = len(d2)
	if len(d2) > maxDirty {
		return full()
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
	hops := dirtyFrontiers(child.dg, d1, d2)
	var rows *tensor.Tensor // the child's logits over hops[1].rows
	switch m.Spec.Arch {
	case "gcn":
		rows = patchGCN(m, child, aux, fd, hops, opt)
	case "gat":
		rows = patchGAT(m, child, aux, fd, hops, opt)
	}
	if rows == nil {
		return full()
	}
	child.seedEmbeddings(key, &embedState{logits: patchRows(ps.logits, child.n, hops[1].rows, rows), aux: aux})
	return "incremental"
}

// kernelStable reports whether every dense product of the model keeps its
// MatMul dispatch path across the parent→child row-count change; cached
// rows are only bitwise-valid in the child when it does.
func kernelStable(m *Model, pn, cn int) bool {
	h, c := m.Spec.Hidden, m.Spec.Classes
	switch m.Spec.Arch {
	case "gcn":
		return tensor.MatMulSameKernel(pn, cn, m.InDim, h) &&
			tensor.MatMulSameKernel(pn, cn, h, c)
	case "gat":
		return tensor.MatMulSameKernel(pn, cn, m.InDim, h) &&
			tensor.MatMulSameKernel(pn, cn, h, 1) &&
			tensor.MatMulSameKernel(pn, cn, h, c) &&
			tensor.MatMulSameKernel(pn, cn, c, 1)
	}
	return false
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

// frontier is one layer's dirty rows with their destination-compact
// in-CSR: row i of g is vertex rows[i] with its FULL in-list in CSR slot
// order, g's row ids are the identity over [0, len(rows)) and neighbour
// ids stay global. A compiled plan run over g reads its Nbr-side inputs
// from the full-graph tensors unmapped and its Self-side inputs from
// tensors gathered to rows, and writes a [len(rows), C] result — nothing
// here or downstream is sized by N. Per-row folds see exactly the
// neighbour values and order the full graph would, which is what keeps
// the patch bitwise. Edge ids renumber sequentially so per-edge
// intermediates stay subgraph-sized.
type frontier struct {
	rows []int32
	g    *graph.Graph
}

// dirtyFrontiers builds both layers' frontiers from the sorted 1-hop and
// 2-hop dirty sets (d1 ⊆ d2) with one copy of the in-lists: the rows are
// d1 followed by what only the second hop reached, so layer 1's graph is
// a prefix of layer 2's.
func dirtyFrontiers(dg *graph.DeltaGraph, d1, d2 []int32) [2]frontier {
	rows := append(make([]int32, 0, len(d2)), d1...)
	i := 0
	for _, v := range d2 {
		if i < len(d1) && d1[i] == v {
			i++
		} else {
			rows = append(rows, v)
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
	prefix := func(k int) frontier {
		mk := int(offsets[k])
		return frontier{rows[:k], &graph.Graph{N: k, M: mk, NumEdgeTypes: 1, In: graph.CSR{
			Offsets: offsets[:k+1], Nbrs: nbrs[:mk], EdgeIDs: ident[:mk], RowIDs: ident[:k],
		}}}
	}
	return [2]frontier{prefix(len(d1)), prefix(len(rows))}
}

// runAggPlan executes one aggregation plan over f's rows only and returns
// their outputs (row i of the result is f.rows[i]). nbr holds the inputs
// the plan reads through Nbr, as full-graph tensors; self the ones it
// reads through Self, gathered here to the dirty rows.
func runAggPlan(plan *exec.CompiledUDF, f frontier, nbr, self map[string]*tensor.Tensor, opt *DeltaOptions) (*tensor.Tensor, error) {
	for k, t := range self {
		nbr[k] = tensor.GatherRows(t, f.rows)
	}
	return plan.Infer(&exec.InferEnv{G: f.g, Dev: device.New(opt.Profile), Pool: opt.Pool}, nbr, nil, nil)
}

// patchGCN brings aux (the parent's, already child-sized) up to date with
// the child and returns the child's logits over hops[1].rows, recomputing
// only dirty rows: feature-dirty rows of the dense products (via
// MatMulRowsLike, bitwise-identical to full-size rows), the 1-hop
// frontier of layer 1 and the 2-hop frontier of layer 2 via the
// aggregation plans over the dirty rows' in-lists. Returns nil on any
// failure (the caller drops aux and falls back to a full forward).
func patchGCN(m *Model, child *Snapshot, aux map[string]*tensor.Tensor, fd []int32, hops [2]frontier, opt *DeltaOptions) *tensor.Tensor {
	n, norm := child.n, child.Norm()
	rows, dirty := child.fs.Gather(fd), fd
	for l, hop := range hops {
		sfx := fmt.Sprintf("%d", l+1)
		hw := aux["hw"+sfx]
		setRows(hw, dirty, tensor.MatMulRowsLike(rows, m.weights["W"+sfx], n))
		agg, err := runAggPlan(m.plans[l], hop, map[string]*tensor.Tensor{"hw": hw, "norm": norm}, nil, opt)
		if err != nil {
			return nil
		}
		rows, dirty = tensor.AddRow(agg, m.weights["b"+sfx], agg), hop.rows
		if l == 0 {
			rows = tensor.Sigmoid(rows, rows)
		}
	}
	return rows
}

// patchGAT is patchGCN's GAT counterpart: per layer the dense hw/eu/ev
// row patches, then the attention aggregation plan over the layer's
// frontier (ev is the plan's one Self-side input).
func patchGAT(m *Model, child *Snapshot, aux map[string]*tensor.Tensor, fd []int32, hops [2]frontier, opt *DeltaOptions) *tensor.Tensor {
	n := child.n
	rows, dirty := child.fs.Gather(fd), fd
	for l, hop := range hops {
		sfx := fmt.Sprintf("%d", l+1)
		hw, eu, ev := aux["hw"+sfx], aux["eu"+sfx], aux["ev"+sfx]
		hwRows := tensor.MatMulRowsLike(rows, m.weights["W"+sfx], n)
		setRows(hw, dirty, hwRows)
		setRows(eu, dirty, tensor.MatMulRowsLike(hwRows, m.weights["aU"+sfx], n))
		setRows(ev, dirty, tensor.MatMulRowsLike(hwRows, m.weights["aV"+sfx], n))
		agg, err := runAggPlan(m.plans[l], hop,
			map[string]*tensor.Tensor{"eu": eu, "h": hw}, map[string]*tensor.Tensor{"ev": ev}, opt)
		if err != nil {
			return nil
		}
		rows, dirty = agg, hop.rows
		if l == 0 {
			rows = tensor.ReLU(rows, rows)
		}
	}
	return rows
}

// patchNorms carries every normalizer the parent had already computed to
// the child, recomputing only the touched vertices' entries (degree
// changes) — bitwise-identical to computing the child's normalizers from
// scratch, since the per-vertex formula is shared.
func patchNorms(parent, child *Snapshot, touched []int32) {
	pn, psrc, pdst := parent.normPeek()
	if pn != nil {
		child.norm = patchNorm(pn, child.dg.In(), child.n, touched, func(d int) float32 { return 1 / float32(d) })
	}
	if psrc != nil {
		invSqrt := func(d int) float32 { return float32(1 / math.Sqrt(float64(d))) }
		child.symSrc = patchNorm(psrc, child.dg.Out(), child.n, touched, invSqrt)
		child.symDst = patchNorm(pdst, child.dg.In(), child.n, touched, invSqrt)
	}
}

// patchNorm copies a per-vertex degree normalizer to child size and
// re-evaluates f(degree) — 0 for an isolated vertex — at the touched rows.
func patchNorm(parent *tensor.Tensor, csr *graph.ChunkedCSR, n int, touched []int32, f func(d int) float32) *tensor.Tensor {
	out := tensor.New(n, 1)
	copy(out.Data(), parent.Data())
	for _, v := range touched {
		var x float32
		if d := csr.Degree(v); d > 0 {
			x = f(d)
		}
		out.Set(int(v), 0, x)
	}
	return out
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
