package serve

import (
	"fmt"

	"seastar/internal/part"
	"seastar/internal/tensor"
)

// Shard-local execution: the program runner (program.go) stepped stage
// by stage over one vertex-cut fragment, which is one frontier — every
// owned row dirty, over the fragment's own in-CSR — with a mirror exchange
// between stages. Bitwise equality with the full-graph forward rests on
// four invariants:
//
//  1. Whole rows. A fragment holds the complete in-edge list of every
//     owned vertex in full-graph neighbour order (part.NewFragment), so
//     each per-vertex fold consumes the same values in the same order — a
//     floating-point fold is order-sensitive, which is exactly why the
//     vertex-cut never splits a row across shards.
//  2. Dense transforms via MatMulRowsLike with fullRows = N: every
//     local row's product is bitwise the corresponding row of the full
//     [N,d]·W GEMM, because the only row-count-dependent choice is the
//     naive-vs-blocked dispatch, replayed from N.
//  3. Normalizers from fragment-carried global degrees, computed with
//     the same arithmetic the snapshot paths use (program.Norm), so every
//     scalar matches.
//  4. Only what the next plan reads through Nbr crosses, computed by its
//     master. Round 1 runs stage 1's dense ops over every local, exact
//     because mirrors hold their features; every later stage's dense ops
//     run over the owned rows at the end of the round before, and by
//     invariant 2 those rows are the full product's. The mirror rows of
//     the stage's crossing values (Stage.Crossing: dense outputs, or the
//     stage input when the plan reads it whole) are then overwritten with
//     their masters' rows, so every value a fold reads at a neighbour has
//     its full-graph bits. Self-side values are gathered at owned rows.
//
// Mirror rows are never computed: Frag.G is a block (graph package doc)
// with Owned destination rows over N = len(Locals) sources, so plan
// outputs and logits are [Owned, C], and only the value tensors a
// neighbour id indexes span every local, N rows.

// ShardEnv binds a fragment to its local tensors for shard execution.
type ShardEnv struct {
	Frag *part.Fragment
	// Feat holds the feature rows of all locals ([numLocals, inDim],
	// gathered by Frag.Locals).
	Feat *tensor.Tensor
	// FullRows is the full graph's N, replayed into every dense dispatch.
	FullRows int
	Pool     *tensor.Pool

	owned frontier // every owned row, over Frag.G; built once
}

// NewShardEnv gathers the fragment's local rows from the full feature
// matrix and builds the frontier every run steps over, on Frag.G as is.
func NewShardEnv(f *part.Fragment, feat *tensor.Tensor, pool *tensor.Pool) *ShardEnv {
	rows := make([]int32, f.Owned)
	for l := range rows {
		rows[l] = int32(l)
	}
	return &ShardEnv{
		Frag:     f,
		Feat:     tensor.GatherRows(feat, f.Locals),
		FullRows: feat.Rows(),
		Pool:     pool,
		owned:    frontier{dirty: rows, rows: rows, g: f.G},
	}
}

// ShardWidths returns the row width each exchange round sends — one
// round per stage; the coordinator drives one /v1/shard/step per round —
// or an error for a model sharded serving rejects. Before the last round
// that is the next stage's crossing values side by side, after it the
// logits.
func (m *Model) ShardWidths() ([]int, error) { return m.prog.ShardWidths(m.Spec.Arch) }

// ShardWidthsForSpec is ShardWidths without a built model — what the
// coordinator (which never compiles plans) sizes and checks frames by.
func ShardWidthsForSpec(spec ModelSpec) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Declare(1, 1).ShardWidths(spec.Arch)
}

// InDegrees returns the locals' in-degrees in the whole graph, which the
// fragment carries for its normalizers (invariant 3).
func (e *ShardEnv) InDegrees() []int32 { return e.Frag.GlobalInDeg }

// OutDegrees returns the locals' out-degrees in the whole graph.
func (e *ShardEnv) OutDegrees() []int32 { return e.Frag.GlobalOutDeg }

// ShardForward steps one fragment through a model, one stage at a time:
// the fragment driver of the program runner. Between StepShard calls the
// caller must overwrite the mirror rows of Exchanged() with their
// masters' owned rows — the GAS scatter. After the final round, Logits()
// holds one row per owned local.
type ShardForward struct {
	r *run
	f *frontier
}

// NewShardForward prepares a stepped forward over env. Every tensor it
// makes is drawn from env.Pool and handed back by Release, so a worker
// that releases one run before starting the next reuses the same storage
// sync after sync.
func NewShardForward(m *Model, env *ShardEnv) (*ShardForward, error) {
	if _, err := m.ShardWidths(); err != nil {
		return nil, err
	}
	fe := &ForwardEnv{G: env.Frag.G, Pool: env.Pool, scoped: true}
	setNorms(m.prog, fe, nil, env)
	r := &run{m: m, env: fe, fullRows: env.FullRows, vals: map[string]*tensor.Tensor{}, h: env.Feat}
	return &ShardForward{r: r, f: &env.owned}, nil
}

// Round returns how many rounds have completed.
func (sf *ShardForward) Round() int { return sf.r.done }

// Done reports whether the final round has run.
func (sf *ShardForward) Done() bool { return sf.r.done == len(sf.r.m.prog.Stages) }

// Logits returns the final activations, [Owned, classes]: row l is owned
// local l.
func (sf *ShardForward) Logits() (*tensor.Tensor, error) {
	if !sf.Done() {
		return nil, fmt.Errorf("serve: shard forward at round %d of %d", sf.r.done, len(sf.r.m.prog.Stages))
	}
	return sf.r.h, nil
}

// StepShard runs one round over the fragment (invariant 4): the phases
// run.step composes, with the exchange between the next stage's dense
// phase and its plan. Mirror rows of Exchanged() must hold their masters'
// rows from the previous round before the call; round 1 needs none, and
// its dense phase covers every local, since mirrors hold their features.
func (sf *ShardForward) StepShard() error {
	r := sf.r
	if sf.Done() {
		return fmt.Errorf("serve: shard forward already finished %d rounds", r.done)
	}
	if r.done == 0 {
		r.dense(nil)
	}
	out, err := r.aggregate(sf.f)
	if err != nil {
		return err
	}
	r.advance(out, sf.f)
	if !sf.Done() {
		r.dense(sf.f)
	}
	return nil
}

// Exchanged returns, between rounds, the tensors whose rows cross the
// shard boundary: the next stage's crossing values, in crossing order. A
// row of the exchange is that row of each, side by side; the owned rows
// are this fragment's exports, the mirror rows where its peers' exports
// go. It is nil before round 1 and after the last.
func (sf *ShardForward) Exchanged() []*tensor.Tensor {
	r := sf.r
	if r.done == 0 || sf.Done() {
		return nil
	}
	var ts []*tensor.Tensor
	for _, name := range r.m.prog.Stages[r.done].Crossing() {
		t := r.h
		if name != "" {
			t = r.vals[name]
		}
		ts = append(ts, t)
	}
	return ts
}

// Release hands every tensor the forward drew — logits included — back
// to the pool. Nothing the forward produced may be read afterwards.
func (sf *ShardForward) Release() { sf.r.env.release() }
