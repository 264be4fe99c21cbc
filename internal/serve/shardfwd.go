package serve

import (
	"fmt"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/part"
	"seastar/internal/tensor"
)

// Shard-local execution: the same compiled plans the single-process
// engine runs, driven layer by layer over one vertex-cut fragment with a
// mirror exchange between layers. Bitwise equality with the full-graph
// forward rests on three invariants:
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

// ShardRounds returns how many exchange-separated plan rounds the arch
// takes (the coordinator drives one /v1/shard/step per round), or an
// error for archs sharded serving rejects.
func (m *Model) ShardRounds() (int, error) { return ShardRoundsForSpec(m.Spec) }

// ShardRoundsForSpec is ShardRounds without a built model — what the
// coordinator (which never compiles plans) plans its exchange from.
func ShardRoundsForSpec(spec ModelSpec) (int, error) {
	switch spec.Arch {
	case "gcn", "gat":
		return 2, nil
	case "appnp":
		k := spec.K
		if k < 1 {
			k = 10
		}
		return k, nil
	}
	return 0, fmt.Errorf("serve: sharded serving does not support %s (typed edge rows cannot split from their relation tables)", spec.Arch)
}

// ShardForward steps one fragment through a model, one aggregation round
// at a time. Between StepShard calls the caller must overwrite the
// mirror rows of H() with their masters' exported rows — the GAS
// scatter. After the final round, Logits() holds valid owned rows.
type ShardForward struct {
	m     *Model
	env   *ShardEnv
	ie    *exec.InferEnv
	round int // rounds completed

	h  *tensor.Tensor // current activations, one row per local
	h0 *tensor.Tensor // APPNP teleport anchor

	norm, sn, dn *tensor.Tensor
}

// NewShardForward prepares a stepped forward over env. For APPNP the
// input projection h0 = W2·ReLU(W1·feat) runs here for every local row —
// it is row-dense, so mirrors' h0 are locally exact and round 1 needs no
// exchange.
func NewShardForward(m *Model, env *ShardEnv) (*ShardForward, error) {
	if _, err := m.ShardRounds(); err != nil {
		return nil, err
	}
	sf := &ShardForward{
		m:   m,
		env: env,
		ie:  &exec.InferEnv{G: env.Frag.G, Dev: env.Dev, Pool: env.Pool},
	}
	switch m.Spec.Arch {
	case "gcn":
		sf.norm = gcnNormFromDegrees(env.Frag.GlobalInDeg, tensor.New)
		sf.h = env.Feat
	case "gat":
		sf.h = env.Feat
	case "appnp":
		sf.sn = symNormFromDegrees(env.Frag.GlobalOutDeg, tensor.New)
		sf.dn = symNormFromDegrees(env.Frag.GlobalInDeg, tensor.New)
		h1 := tensor.ReLU(sf.mmLike(env.Feat, m.weights["W1"]))
		sf.h0 = sf.mmLike(h1, m.weights["W2"])
		sf.h = sf.h0
	}
	return sf, nil
}

// mmLike is the shard-side counterpart of model.go's mm: a row-subset
// dense product dispatched as if it were the full [N,k] multiply, with
// the same device cost accounting.
func (sf *ShardForward) mmLike(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMulRowsLike(a, b, sf.env.FullRows)
	exec.ChargeDense(sf.env.Dev, "dense.matmul",
		float64(a.Rows())*float64(b.Rows())*float64(b.Cols()),
		int64(a.Size()+b.Size())*4, int64(out.Size())*4)
	return out
}

// H returns the current activation tensor, one row per local. The caller
// reads exported owned rows from it and scatters imported mirror rows
// into it between rounds.
func (sf *ShardForward) H() *tensor.Tensor { return sf.h }

// Round returns how many rounds have completed.
func (sf *ShardForward) Round() int { return sf.round }

// Done reports whether the final round has run.
func (sf *ShardForward) Done() bool {
	r, _ := sf.m.ShardRounds()
	return sf.round >= r
}

// Logits returns the final activations; only owned rows are valid.
func (sf *ShardForward) Logits() (*tensor.Tensor, error) {
	if !sf.Done() {
		return nil, fmt.Errorf("serve: shard forward at round %d of %d", sf.round, mustRounds(sf.m))
	}
	return sf.h, nil
}

func mustRounds(m *Model) int {
	r, _ := m.ShardRounds()
	return r
}

// StepShard runs one aggregation round over the fragment. Mirror rows of
// H() must hold their masters' values from the previous round before the
// call (for round 1 they hold features / locally-computed h0, which are
// exact by construction).
func (sf *ShardForward) StepShard() error {
	if sf.Done() {
		return fmt.Errorf("serve: shard forward already finished %d rounds", sf.round)
	}
	l := sf.round
	switch sf.m.Spec.Arch {
	case "gcn":
		sfx := fmt.Sprintf("%d", l+1)
		hw := sf.mmLike(sf.h, sf.m.weights["W"+sfx])
		out, err := sf.m.plans[l].Infer(sf.ie,
			map[string]*tensor.Tensor{"hw": hw, "norm": sf.norm}, nil, nil)
		if err != nil {
			return err
		}
		h := tensor.AddRow(out, sf.m.weights["b"+sfx])
		if l == 0 {
			h = tensor.Sigmoid(h)
		}
		sf.h = h
	case "gat":
		sfx := fmt.Sprintf("%d", l+1)
		hw := sf.mmLike(sf.h, sf.m.weights["W"+sfx])
		eu := sf.mmLike(hw, sf.m.weights["aU"+sfx])
		ev := sf.mmLike(hw, sf.m.weights["aV"+sfx])
		out, err := sf.m.plans[l].Infer(sf.ie,
			map[string]*tensor.Tensor{"eu": eu, "ev": ev, "h": hw}, nil, nil)
		if err != nil {
			return err
		}
		if l == 0 {
			out = tensor.ReLU(out)
		}
		sf.h = out
	case "appnp":
		out, err := sf.m.plans[0].Infer(sf.ie,
			map[string]*tensor.Tensor{"h": sf.h, "h0": sf.h0, "sn": sf.sn, "dn": sf.dn},
			nil, nil)
		if err != nil {
			return err
		}
		sf.h = out
	default:
		return fmt.Errorf("serve: sharded serving does not support %s", sf.m.Spec.Arch)
	}
	sf.round++
	return nil
}

// ExportRows copies the listed rows of H() into a flat float32 block
// (len(rows) × width), the per-peer payload of one exchange round.
func (sf *ShardForward) ExportRows(rows []int32) []float32 {
	w := sf.h.Cols()
	out := make([]float32, len(rows)*w)
	for i, r := range rows {
		copy(out[i*w:(i+1)*w], sf.h.Row(int(r)))
	}
	return out
}

// ImportRows scatters a flat block from a peer's ExportRows into the
// listed mirror rows of H().
func (sf *ShardForward) ImportRows(rows []int32, block []float32) error {
	w := sf.h.Cols()
	if len(block) != len(rows)*w {
		return fmt.Errorf("serve: import block %d floats for %d rows × width %d", len(block), len(rows), w)
	}
	for i, r := range rows {
		copy(sf.h.Row(int(r)), block[i*w:(i+1)*w])
	}
	return nil
}
