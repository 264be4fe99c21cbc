package serve

import (
	"fmt"
	"slices"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Model is one compiled, weight-bound serving plan: everything needed to
// run a forward pass except the graph. It is immutable after build and
// shared freely across concurrent batches (compiled kernels serialize on
// their own internal lock).
type Model struct {
	Spec   ModelSpec
	InDim  int
	NumRel int // edge-type count the plans were compiled for (1 if untyped)

	prog    *program.Program
	weights map[string]*tensor.Tensor
	udfs    map[*program.Plan]*exec.CompiledUDF // one inference compilation per distinct plan
}

// planKey is the structural cache key for this model: plans and weights
// depend only on (spec, input width, relation count), never on the graph
// instance, so snapshots and delta generations share one compiled model.
func (m *Model) planKey() PlanKey {
	return PlanKey{Spec: m.Spec.Key(), InDim: m.InDim, NumRel: m.NumRel}
}

// SupportsIncremental reports whether the delta path can patch this
// model's cached embeddings bitwise; Program.Incremental says why.
func (m *Model) SupportsIncremental() bool { return m.prog.Incremental() }

// ForwardEnv carries the per-call graph context for Model.Forward.
type ForwardEnv struct {
	G    *graph.Graph
	Feat *tensor.Tensor
	// blocks, when set, holds the graph each stage walks: on a sampled
	// forward, stage l's block of the sample G (sampling.Batch.Block).
	// Unset, every stage walks G.
	blocks []*graph.Graph
	// Dev is ignored: serving charges no simulated device. It stays only
	// because benchmark/ still sets it; ROADMAP item 10(e) removes it.
	Dev  *device.Device
	Pool *tensor.Pool

	norms [program.NumNorms]*tensor.Tensor // G's normalizers the plans bind, by ref

	// scoped marks a forward whose every tensor dies with the request:
	// get then draws from Pool and release hands it all back. The engine
	// sets it on the sampled and per-batch paths, ShardForward on every
	// fragment run; a forward whose state a snapshot retains
	// (EnsureEmbeddings, deltas) leaves it off.
	scoped bool
	drawn  []*tensor.Tensor
}

// stage returns the graph stage l walks.
func (env *ForwardEnv) stage(l int) *graph.Graph {
	if env.blocks == nil {
		return env.G
	}
	return env.blocks[l]
}

// get returns a zeroed tensor for one forward intermediate or result:
// ordinary memory, or pooled storage on a scoped env.
func (env *ForwardEnv) get(shape ...int) *tensor.Tensor {
	if !env.scoped {
		return tensor.New(shape...)
	}
	t := env.Pool.Get(shape...)
	env.drawn = append(env.drawn, t)
	return t
}

// recycle hands back, ahead of release, a tensor the forward has consumed,
// so the next get of its class reuses the storage: a request then holds a
// layer's input or its output, never both. A tensor env did not draw (a
// snapshot's features, anything on an unscoped env) is left alone.
func (env *ForwardEnv) recycle(t *tensor.Tensor) {
	if i := slices.Index(env.drawn, t); i >= 0 {
		env.Pool.Put(t)
		env.drawn = slices.Delete(env.drawn, i, i+1)
	}
}

// release returns everything a scoped env drew to the pool. Nothing the
// forward produced — logits included — may be read afterwards. Tensors go
// back last drawn first: when the pool's demand bound must drop some, it
// drops what it has not touched longest, which is then what the next
// forward draws last rather than first.
func (env *ForwardEnv) release() {
	for i := len(env.drawn) - 1; i >= 0; i-- {
		env.Pool.Put(env.drawn[i])
	}
	env.drawn = nil
}

// NormsFor fills the normalizers arch's plans bind, from the snapshot's
// lazy caches when g is the snapshot graph, or computed fresh otherwise
// (sampled subgraphs). An unknown arch binds none.
func NormsFor(arch string, snap *Snapshot, g *graph.Graph, env *ForwardEnv) {
	spec := ModelSpec{Arch: arch, Hidden: 1, Classes: 1}
	if spec.Validate() != nil {
		return
	}
	if snap != nil && g != snap.Graph() {
		snap = nil
	}
	setNorms(spec.Declare(1, 1), env, snap, g)
}

// BuildModel declares spec's program against an input width and relation
// count, draws the weights and compiles the plans.
func BuildModel(spec ModelSpec, inDim, numRelations int) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newModel(spec, inDim, numRelations, spec.Declare(inDim, numRelations))
}

// Forward runs the full inference pass over env.G, returning [D, classes]
// logits for the last stage's D destinations: all N vertices, or on a
// sampled forward the seeds. Every tensor it makes comes from env (see
// ForwardEnv.get), so any number of Forwards can run concurrently on the
// same Model.
func (m *Model) Forward(env *ForwardEnv) (*tensor.Tensor, error) {
	st, err := m.runAll(env)
	if err != nil {
		return nil, err
	}
	return st.logits, nil
}

// runAll is the all-rows driver of the program runner: stage l computes
// every row of the graph it walks (ForwardEnv.stage). The dense products
// stay with the state (aux) when the delta path can patch them.
func (m *Model) runAll(env *ForwardEnv) (*embedState, error) {
	if m.prog.Typed() && env.G.EdgeTypes == nil {
		return nil, fmt.Errorf("serve: %s requires a heterogeneous graph", m.Spec.Arch)
	}
	r := &run{m: m, env: env, fullRows: env.Feat.Rows(), vals: map[string]*tensor.Tensor{}, h: env.Feat}
	for range m.prog.Stages {
		if err := r.step(nil); err != nil {
			return nil, err
		}
	}
	st := &embedState{logits: r.h}
	if m.SupportsIncremental() {
		st.aux = r.vals
	}
	return st, nil
}
