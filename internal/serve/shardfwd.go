package serve

import (
	"fmt"

	"seastar/internal/device"
	"seastar/internal/part"
	"seastar/internal/tensor"
)

// Shard-local execution: the program runner (program.go) stepped stage
// by stage over one vertex-cut fragment with a mirror exchange between
// stages. Bitwise equality with the full-graph forward rests on three
// invariants:
//
//  1. Whole rows. A fragment holds the complete in-edge list of every
//     owned vertex in full-graph neighbour order (part.Build), so each
//     per-vertex fold consumes the same values in the same order — a
//     floating-point fold is order-sensitive, which is exactly why the
//     vertex-cut never splits a row across shards.
//  2. Dense transforms via MatMulRowsLike with fullRows = N: every
//     local row's product is bitwise the corresponding row of the full
//     [N,d]·W GEMM, because the only row-count-dependent choice is the
//     naive-vs-blocked dispatch, replayed from N.
//  3. Normalizers from fragment-carried global degrees, computed with
//     the same arithmetic the snapshot paths use (gcnNormFromDegrees /
//     symNormFromDegrees), so every scalar matches.
//
// Mirror rows' own outputs are garbage (their in-rows live elsewhere)
// and are overwritten by their masters' exports before the next layer
// reads them; they are never exported or served.

// ShardEnv binds a fragment to its local tensors for shard execution.
type ShardEnv struct {
	Frag *part.Fragment
	// Feat holds the feature rows of all locals ([numLocals, inDim],
	// gathered by Frag.Locals).
	Feat *tensor.Tensor
	// FullRows is the full graph's N, replayed into every dense dispatch.
	FullRows int
	Dev      *device.Device
	Pool     *tensor.Pool
}

// NewShardEnv gathers the fragment's local rows from the full feature
// matrix and degree-sorts the local graph (the same preprocessing
// NewSnapshot applies; row order never changes per-row results).
func NewShardEnv(f *part.Fragment, feat *tensor.Tensor, dev *device.Device, pool *tensor.Pool) *ShardEnv {
	if !f.G.In.Sorted {
		f.G = f.G.SortByDegree()
	}
	return &ShardEnv{
		Frag:     f,
		Feat:     tensor.GatherRows(feat, f.Locals),
		FullRows: feat.Rows(),
		Dev:      dev,
		Pool:     pool,
	}
}

// ShardRounds returns how many exchange rounds the model takes — one per
// stage; the coordinator drives one /v1/shard/step per round — or an
// error for a model sharded serving rejects.
func (m *Model) ShardRounds() (int, error) { return shardRounds(m.Spec.Arch, m.prog) }

// ShardRoundsForSpec is ShardRounds without a built model — what the
// coordinator (which never compiles plans) plans its exchange from.
func ShardRoundsForSpec(spec ModelSpec) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	return shardRounds(spec.Arch, spec.program())
}

func shardRounds(arch string, p *program) (int, error) {
	if p.typed() {
		return 0, fmt.Errorf("serve: sharded serving does not support %s (typed edge rows cannot split from their relation tables)", arch)
	}
	return len(p.stages), nil
}

// InDegrees returns the locals' in-degrees in the whole graph, which the
// fragment carries for its normalizers (invariant 3).
func (e *ShardEnv) InDegrees() []int32 { return e.Frag.GlobalInDeg }

// OutDegrees returns the locals' out-degrees in the whole graph.
func (e *ShardEnv) OutDegrees() []int32 { return e.Frag.GlobalOutDeg }

// ShardForward steps one fragment through a model, one stage at a time:
// the fragment driver of the program runner. Between StepShard calls the
// caller must overwrite the mirror rows of H() with their masters'
// exported rows — the GAS scatter. After the final round, Logits() holds
// valid owned rows.
type ShardForward struct{ r *run }

// NewShardForward prepares a stepped forward over env. Round 1 needs no
// exchange: every local row's features are here, and whatever a first
// stage derives from them densely is exact for mirrors too.
func NewShardForward(m *Model, env *ShardEnv) (*ShardForward, error) {
	if _, err := m.ShardRounds(); err != nil {
		return nil, err
	}
	fe := &ForwardEnv{G: env.Frag.G, Dev: env.Dev, Pool: env.Pool}
	m.prog.setNorms(fe, nil, env)
	return &ShardForward{&run{m: m, env: fe, fullRows: env.FullRows, vals: map[string]*tensor.Tensor{}, h: env.Feat}}, nil
}

// H returns the current activation tensor, one row per local. The caller
// reads exported owned rows from it and scatters imported mirror rows
// into it between rounds.
func (sf *ShardForward) H() *tensor.Tensor { return sf.r.h }

// Round returns how many rounds have completed.
func (sf *ShardForward) Round() int { return sf.r.done }

// Done reports whether the final round has run.
func (sf *ShardForward) Done() bool { return sf.r.done == len(sf.r.m.prog.stages) }

// Logits returns the final activations; only owned rows are valid.
func (sf *ShardForward) Logits() (*tensor.Tensor, error) {
	if !sf.Done() {
		return nil, fmt.Errorf("serve: shard forward at round %d of %d", sf.r.done, len(sf.r.m.prog.stages))
	}
	return sf.r.h, nil
}

// StepShard runs one round over the fragment. Mirror rows of H() must
// hold their masters' values from the previous round before the call (for
// round 1 they hold features, exact by construction).
func (sf *ShardForward) StepShard() error {
	if sf.Done() {
		return fmt.Errorf("serve: shard forward already finished %d rounds", sf.r.done)
	}
	return sf.r.step(nil)
}

// ExportRows copies the listed rows of H() into a flat float32 block
// (len(rows) × width), the per-peer payload of one exchange round.
func (sf *ShardForward) ExportRows(rows []int32) []float32 {
	return tensor.GatherRows(sf.r.h, rows).Data()
}

// ImportRows scatters a flat block from a peer's ExportRows into the
// listed mirror rows of H().
func (sf *ShardForward) ImportRows(rows []int32, block []float32) error {
	w := sf.r.h.Cols()
	if len(block) != len(rows)*w {
		return fmt.Errorf("serve: import block %d floats for %d rows × width %d", len(block), len(rows), w)
	}
	setRows(sf.r.h, rows, tensor.FromSlice(block, len(rows), w))
	return nil
}
