package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// ModelSpec is the canonical serving configuration of one GNN. Equal
// specs always denote the same function: weights are drawn
// deterministically from Seed, so every replica (and every plan-cache
// rebuild) computes bit-identical outputs.
type ModelSpec struct {
	Arch    string // "gcn", "gat", "appnp" or "rgcn"
	Hidden  int
	Classes int
	Alpha   float32 // APPNP teleport probability
	K       int     // APPNP propagation steps
	Seed    int64   // weight-initialization seed
}

// Validate checks the spec and fills APPNP defaults.
func (s *ModelSpec) Validate() error {
	s.Arch = strings.ToLower(s.Arch)
	switch s.Arch {
	case "gcn", "gat", "appnp", "rgcn":
	default:
		return fmt.Errorf("serve: unknown arch %q (want gcn|gat|appnp|rgcn)", s.Arch)
	}
	if s.Hidden < 1 || s.Classes < 1 {
		return fmt.Errorf("serve: hidden=%d classes=%d must be ≥ 1", s.Hidden, s.Classes)
	}
	if s.Arch == "appnp" {
		if s.Alpha <= 0 || s.Alpha >= 1 {
			s.Alpha = 0.1
		}
		if s.K < 1 {
			s.K = 10
		}
	}
	return nil
}

// Key is the canonical string form used in the plan-cache key.
func (s ModelSpec) Key() string {
	return fmt.Sprintf("%s/h%d/c%d/a%g/k%d/s%d", s.Arch, s.Hidden, s.Classes, s.Alpha, s.K, s.Seed)
}

// Model is one compiled, weight-bound serving plan: everything needed to
// run a forward pass except the graph. It is immutable after build and
// shared freely across concurrent batches (compiled kernels serialize on
// their own internal lock).
type Model struct {
	Spec   ModelSpec
	InDim  int
	NumRel int // edge-type count the plans were compiled for (1 if untyped)

	weights map[string]*tensor.Tensor
	plans   []*exec.CompiledUDF
}

// planKey is the structural cache key for this model: plans and weights
// depend only on (spec, input width, relation count), never on the graph
// instance, so snapshots and delta generations share one compiled model.
func (m *Model) planKey() PlanKey {
	return PlanKey{Spec: m.Spec.Key(), InDim: m.InDim, NumRel: m.NumRel}
}

// SupportsIncremental reports whether the arch's forward factors into
// row-independent dense transforms plus pure edge aggregations — the
// shape the delta path can patch bitwise. GCN and GAT qualify; APPNP's
// K-step propagation spreads any change across the whole graph, and
// R-GCN graphs reject deltas outright (edge types).
func (m *Model) SupportsIncremental() bool {
	return m.Spec.Arch == "gcn" || m.Spec.Arch == "gat"
}

// ForwardEnv carries the per-call graph context for Model.Forward. The
// norm fields are arch-dependent; NormsFor fills exactly the ones the
// arch reads.
type ForwardEnv struct {
	G    *graph.Graph
	Feat *tensor.Tensor
	Dev  *device.Device
	Pool *tensor.Pool

	Norm           *tensor.Tensor // gcn: 1/in-degree
	SymSrc, SymDst *tensor.Tensor // appnp: symmetric pair
	EdgeNorm       *tensor.Tensor // rgcn: per-edge 1/c_{v,r}

	// scoped marks a forward whose every tensor dies with the request:
	// get then draws from Pool and release hands it all back. The engine
	// sets it on the sampled and per-batch paths; a forward whose state a
	// snapshot retains (EnsureEmbeddings, deltas) leaves it off.
	scoped bool
	drawn  []*tensor.Tensor
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

// recycle hands back, ahead of release, tensors the forward has consumed,
// so the next get of their class reuses the storage: a request then holds
// a layer's input or its output, never both. Tensors env did not draw (a
// snapshot's features, anything on an unscoped env) are left alone.
func (env *ForwardEnv) recycle(ts ...*tensor.Tensor) {
	for _, t := range ts {
		if i := slices.Index(env.drawn, t); i >= 0 {
			env.Pool.Put(t)
			env.drawn = slices.Delete(env.drawn, i, i+1)
		}
	}
}

// release returns everything a scoped env drew to the pool. Nothing the
// forward produced — logits included — may be read afterwards.
func (env *ForwardEnv) release() {
	for _, t := range env.drawn {
		env.Pool.Put(t)
	}
	env.drawn = nil
}

// NormsFor fills the normalizers arch needs, from the snapshot's lazy
// caches when g is the snapshot graph, or computed fresh otherwise
// (sampled subgraphs).
func NormsFor(arch string, snap *Snapshot, g *graph.Graph, env *ForwardEnv) {
	cached := snap != nil && g == snap.Graph()
	switch arch {
	case "gcn":
		if cached {
			env.Norm = snap.Norm()
		} else {
			env.Norm = gcnNormFromDegrees(g.InDegrees(), env.get)
		}
	case "appnp":
		if cached {
			env.SymSrc, env.SymDst = snap.SymNorms()
		} else {
			env.SymSrc = symNormFromDegrees(g.OutDegrees(), env.get)
			env.SymDst = symNormFromDegrees(g.InDegrees(), env.get)
		}
	case "rgcn":
		if cached {
			env.EdgeNorm = snap.EdgeNorm()
		} else {
			env.EdgeNorm = datasets.RGCNEdgeNorm(g)
		}
	}
}

// BuildModel compiles the serving plans for spec against an input width
// and relation count, and draws the weights. This is the expensive path
// the plan cache deduplicates.
func BuildModel(spec ModelSpec, inDim, numRelations int) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if inDim < 1 {
		return nil, fmt.Errorf("serve: input dim %d must be ≥ 1", inDim)
	}
	m := &Model{Spec: spec, InDim: inDim, NumRel: 1, weights: map[string]*tensor.Tensor{}}
	if spec.Arch == "rgcn" {
		m.NumRel = numRelations
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	xavier := func(name string, in, out int) {
		m.weights[name] = tensor.XavierUniform(rng, in, out)
	}
	zeros := func(name string, shape ...int) {
		m.weights[name] = tensor.New(shape...)
	}
	compile := func(build func() (*gir.DAG, error)) error {
		dag, err := build()
		if err != nil {
			return err
		}
		c, err := exec.CompileInference(dag)
		if err != nil {
			return err
		}
		m.plans = append(m.plans, c)
		return nil
	}

	h, c := spec.Hidden, spec.Classes
	switch spec.Arch {
	case "gcn":
		xavier("W1", inDim, h)
		zeros("b1", h)
		xavier("W2", h, c)
		zeros("b2", c)
		if err := compile(func() (*gir.DAG, error) { return traceGCNAgg(h) }); err != nil {
			return nil, err
		}
		if err := compile(func() (*gir.DAG, error) { return traceGCNAgg(c) }); err != nil {
			return nil, err
		}
	case "gat":
		xavier("W1", inDim, h)
		xavier("aU1", h, 1)
		xavier("aV1", h, 1)
		xavier("W2", h, c)
		xavier("aU2", c, 1)
		xavier("aV2", c, 1)
		if err := compile(func() (*gir.DAG, error) { return traceGAT(h) }); err != nil {
			return nil, err
		}
		if err := compile(func() (*gir.DAG, error) { return traceGAT(c) }); err != nil {
			return nil, err
		}
	case "appnp":
		xavier("W1", inDim, h)
		xavier("W2", h, c)
		if err := compile(func() (*gir.DAG, error) { return traceAPPNP(c, spec.Alpha) }); err != nil {
			return nil, err
		}
	case "rgcn":
		if numRelations < 1 {
			return nil, fmt.Errorf("serve: rgcn needs ≥ 1 relation, got %d", numRelations)
		}
		relUniform := func(name string, in, out int) {
			l := math.Sqrt(6 / float64(in+out))
			m.weights[name] = tensor.Uniform(rng, -l, l, numRelations, in, out)
		}
		relUniform("Ws1", inDim, h)
		xavier("Wself1", inDim, h)
		relUniform("Ws2", h, c)
		xavier("Wself2", h, c)
		if err := compile(func() (*gir.DAG, error) { return traceRGCN(numRelations, inDim, h) }); err != nil {
			return nil, err
		}
		if err := compile(func() (*gir.DAG, error) { return traceRGCN(numRelations, h, c) }); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// The traced vertex programs mirror internal/models exactly, so serving
// computes the same function as training-time inference.

// traceGCNAgg is the aggregation half of a GCN layer: the dense h·W is
// hoisted out of the vertex program (forwardGCN computes it with the
// blocked GEMM), leaving a pure gather-scale-accumulate edge stage. The
// hoisted split is bitwise-identical to tracing the matmul inside the
// plan — the compiler lowers Nbr(h).MatMul(W) to the same per-row
// transform — and it is what makes incremental recompute possible: the
// edge stage can run on an induced subgraph of dirty rows while unchanged
// rows keep their cached dense products.
func traceGCNAgg(out int) (*gir.DAG, error) {
	b := gir.NewBuilder()
	b.VFeature("hw", out)
	b.VFeature("norm", 1)
	return b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("hw").Mul(v.Nbr("norm")).AggSum()
	})
}

func traceGAT(dim int) (*gir.DAG, error) {
	b := gir.NewBuilder()
	b.VFeature("eu", 1)
	b.VFeature("ev", 1)
	b.VFeature("h", dim)
	return b.Build(func(v *gir.Vertex) *gir.Value {
		e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
		a := e.Div(e.AggSum())
		return a.Mul(v.Nbr("h")).AggSum()
	})
}

func traceAPPNP(dim int, alpha float32) (*gir.DAG, error) {
	b := gir.NewBuilder()
	b.VFeature("h", dim)
	b.VFeature("h0", dim)
	b.VFeature("sn", 1)
	b.VFeature("dn", 1)
	return b.Build(func(v *gir.Vertex) *gir.Value {
		agg := v.Nbr("h").Mul(v.Nbr("sn")).AggSum()
		return agg.Mul(v.Self("dn")).MulScalar(1 - alpha).
			Add(v.Self("h0").MulScalar(alpha))
	})
}

func traceRGCN(r, in, out int) (*gir.DAG, error) {
	b := gir.NewBuilder()
	b.VFeature("h", in)
	b.EFeature("norm", 1)
	Ws := b.Param("W", r, in, out)
	return b.Build(func(v *gir.Vertex) *gir.Value {
		return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
	})
}

// Forward runs the full inference pass over env.G, returning [N, classes]
// logits. Every tensor it makes comes from env (see ForwardEnv.get), so
// any number of Forwards can run concurrently on the same Model.
func (m *Model) Forward(env *ForwardEnv) (*tensor.Tensor, error) {
	st, err := m.forwardState(env)
	if err != nil {
		return nil, err
	}
	return st.logits, nil
}

// forwardState runs the forward pass and keeps the per-layer dense
// products (aux) alive for the incremental delta patcher. For archs
// without incremental support aux is nil and the state is just logits.
func (m *Model) forwardState(env *ForwardEnv) (*embedState, error) {
	switch m.Spec.Arch {
	case "gcn":
		return m.forwardGCN(env)
	case "gat":
		return m.forwardGAT(env)
	case "appnp":
		return m.forwardAPPNP(env)
	case "rgcn":
		return m.forwardRGCN(env)
	}
	return nil, fmt.Errorf("serve: unknown arch %q", m.Spec.Arch)
}

func (m *Model) inferEnv(env *ForwardEnv) *exec.InferEnv {
	return &exec.InferEnv{G: env.G, Dev: env.Dev, Pool: env.Pool, Result: env.get}
}

// mm is a dense matmul charged to the batch device with the same cost
// model the training runtime uses, so /debug/trace shows dense work too.
func mm(env *ForwardEnv, a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMul(a, b, env.get(a.Rows(), b.Cols()))
	exec.ChargeDense(env.Dev, "dense.matmul",
		float64(a.Rows())*float64(b.Rows())*float64(b.Cols()),
		int64(a.Size()+b.Size())*4, int64(out.Size())*4)
	return out
}

// forwardGCN runs the hoisted two-layer GCN: per layer, a full-size dense
// h·W (blocked GEMM), the aggregation-only plan, bias and activation. The
// hw products land in aux so the delta patcher can reuse unchanged rows
// (the hidden state itself is never read back: a dirty row's is
// recomputed, a clean row's is already folded into hw2).
func (m *Model) forwardGCN(env *ForwardEnv) (*embedState, error) {
	ie := m.inferEnv(env)
	st := &embedState{aux: map[string]*tensor.Tensor{}}
	h := env.Feat
	for l := 0; l < 2; l++ {
		sfx := fmt.Sprintf("%d", l+1)
		hw := mm(env, h, m.weights["W"+sfx])
		env.recycle(h)
		st.aux["hw"+sfx] = hw
		out, err := m.plans[l].Infer(ie,
			map[string]*tensor.Tensor{"hw": hw, "norm": env.Norm}, nil, nil)
		if err != nil {
			return nil, err
		}
		h = tensor.AddRow(out, m.weights["b"+sfx], out)
		if l == 0 {
			h = tensor.Sigmoid(h, h)
		}
	}
	st.logits = h
	return st, nil
}

func (m *Model) forwardGAT(env *ForwardEnv) (*embedState, error) {
	ie := m.inferEnv(env)
	st := &embedState{aux: map[string]*tensor.Tensor{}}
	h := env.Feat
	for l := 0; l < 2; l++ {
		sfx := fmt.Sprintf("%d", l+1)
		hw := mm(env, h, m.weights["W"+sfx])
		env.recycle(h)
		eu := mm(env, hw, m.weights["aU"+sfx])
		ev := mm(env, hw, m.weights["aV"+sfx])
		st.aux["hw"+sfx] = hw
		st.aux["eu"+sfx] = eu
		st.aux["ev"+sfx] = ev
		out, err := m.plans[l].Infer(ie,
			map[string]*tensor.Tensor{"eu": eu, "ev": ev, "h": hw}, nil, nil)
		if err != nil {
			return nil, err
		}
		h = out
		if l == 0 {
			h = tensor.ReLU(h, h)
		}
	}
	st.logits = h
	return st, nil
}

func (m *Model) forwardAPPNP(env *ForwardEnv) (*embedState, error) {
	ie := m.inferEnv(env)
	h1 := mm(env, env.Feat, m.weights["W1"])
	env.recycle(env.Feat)
	h0 := mm(env, tensor.ReLU(h1, h1), m.weights["W2"])
	env.recycle(h1)
	h := h0
	for k := 0; k < m.Spec.K; k++ {
		out, err := m.plans[0].Infer(ie,
			map[string]*tensor.Tensor{"h": h, "h0": h0, "sn": env.SymSrc, "dn": env.SymDst},
			nil, nil)
		if err != nil {
			return nil, err
		}
		if h != h0 {
			env.recycle(h)
		}
		h = out
	}
	return &embedState{logits: h}, nil
}

func (m *Model) forwardRGCN(env *ForwardEnv) (*embedState, error) {
	if env.G.EdgeTypes == nil {
		return nil, fmt.Errorf("serve: rgcn requires a heterogeneous graph")
	}
	ie := m.inferEnv(env)
	h := env.Feat
	for l := 0; l < 2; l++ {
		sfx := fmt.Sprintf("%d", l+1)
		self := mm(env, h, m.weights["Wself"+sfx])
		agg, err := m.plans[l].Infer(ie,
			map[string]*tensor.Tensor{"h": h},
			map[string]*tensor.Tensor{"norm": env.EdgeNorm},
			map[string]*tensor.Tensor{"W": m.weights["Ws"+sfx]})
		if err != nil {
			return nil, err
		}
		env.recycle(h)
		h = tensor.Add(self, agg, self)
		env.recycle(agg)
		if l == 0 {
			h = tensor.ReLU(h, h)
		}
	}
	return &embedState{logits: h}, nil
}
