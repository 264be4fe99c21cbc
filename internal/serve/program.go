package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"seastar/internal/datasets"
	"seastar/internal/exec"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// The only file that knows what a served architecture computes (DESIGN
// §8): each is declared once, as data, in the programs table; run.step
// applies a program's stages to whatever rows arrive; and what the engine,
// the delta path and the shard protocol must know of an architecture is
// derived from its program. scripts/ci.sh fails if one is named elsewhere.

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
	a, ok := programs[s.Arch]
	if !ok {
		var known []string
		for name := range programs {
			known = append(known, name)
		}
		slices.Sort(known)
		return fmt.Errorf("serve: unknown arch %q (want %s)", s.Arch, strings.Join(known, "|"))
	}
	if s.Hidden < 1 || s.Classes < 1 {
		return fmt.Errorf("serve: hidden=%d classes=%d must be ≥ 1", s.Hidden, s.Classes)
	}
	if a.defaults != nil {
		a.defaults(s)
	}
	return nil
}

// Key is the canonical string form used in the plan-cache key.
func (s ModelSpec) Key() string {
	return fmt.Sprintf("%s/h%d/c%d/a%g/k%d/s%d", s.Arch, s.Hidden, s.Classes, s.Alpha, s.K, s.Seed)
}

// program declares a validated spec's program at nominal widths.
func (s ModelSpec) program() *program { return programs[s.Arch].declare(s, 1, 1) }

// A program is the weights in the order they are drawn and the stages;
// the first stage's input is the features.
type program struct {
	weights []weight
	stages  []stage
}

// weight is one parameter tensor: Glorot-uniform over its last two
// dimensions, or — 1-D, a bias — zeros, which draw nothing from the seed.
type weight struct {
	name  string
	shape []int
}

func wt(name string, shape ...int) weight { return weight{name, shape} }

// activation is a tensor op applied in place (tensor.ReLU, …); nil is none.
type activation func(t *tensor.Tensor, into ...*tensor.Tensor) *tensor.Tensor

// dense is one row-wise product out = act(in·w); in names an earlier
// dense output of the stage, or is "" for the stage input. A row of the
// result depends on that row of the input alone, which is what lets the
// runner cover all rows, only dirty ones, or a fragment's.
type dense struct {
	out, in, w string
	act        activation
}

// A stage is one message-passing layer: dense products, one compiled
// vertex program with every input bound by key, then row-wise post ops in
// place on its output. Stages are the exchange rounds of sharded serving
// and the hops of a delta's frontier.
type stage struct {
	dense  []dense
	plan   *plan      // stages running the same vertex program share one
	values []bind     // ← a dense output of this or an earlier stage, or "" for the stage input
	norms  []normBind // ← a graph normalizer
	params []bind     // ← a weight, read per edge type

	// Post ops, in this order: += a weight broadcast over rows, += a dense
	// output of this stage row for row, an activation.
	bias, plus string
	act        activation
}

type bind struct{ key, name string }

type normBind struct {
	key string
	ref normRef
}

// normRef names a graph normalizer a plan input can bind.
type normRef int

const (
	normInDeg   normRef = iota // per vertex, 1/in-degree
	normSymSrc                 // per vertex, 1/√out-degree
	normSymDst                 // per vertex, 1/√in-degree
	normEdgeRel                // per edge, 1/c_{v,r} (needs edge types)
	numNorms
)

// plan is one traced vertex program, compiled by newModel. self holds the
// vertex keys it reads through Self; the rest it reads through Nbr. Over a
// frontier the two sides index different tensors, so no key may be both.
// width is the row width of its output.
type plan struct {
	trace func() (*gir.DAG, error)
	udf   *exec.CompiledUDF
	self  map[string]bool
	width int
}

// programs is the table of served architectures. The traced vertex
// programs mirror internal/models exactly, so serving computes the same
// function as training-time inference.
var programs = map[string]struct {
	defaults func(*ModelSpec) // optional
	declare  func(s ModelSpec, inDim, numRel int) *program
}{
	// Two layers of mean aggregation. The dense h·W is hoisted out of the
	// vertex program — bitwise-identical to tracing the matmul inside it
	// (the compiler lowers Nbr(h).MatMul(W) to the same per-row transform)
	// — which is what makes the architecture incremental.
	"gcn": {declare: func(s ModelSpec, in, _ int) *program {
		layer := func(l string, width int, a activation) stage {
			return stage{
				dense: []dense{{out: "hw" + l, w: "W" + l}},
				plan: &plan{trace: func() (*gir.DAG, error) {
					b := gir.NewBuilder()
					b.VFeature("hw", width)
					b.VFeature("norm", 1)
					return b.Build(func(v *gir.Vertex) *gir.Value {
						return v.Nbr("hw").Mul(v.Nbr("norm")).AggSum()
					})
				}},
				values: []bind{{"hw", "hw" + l}},
				norms:  []normBind{{"norm", normInDeg}},
				bias:   "b" + l, act: a,
			}
		}
		return &program{
			weights: []weight{wt("W1", in, s.Hidden), wt("b1", s.Hidden), wt("W2", s.Hidden, s.Classes), wt("b2", s.Classes)},
			stages:  []stage{layer("1", s.Hidden, tensor.Sigmoid), layer("2", s.Classes, nil)},
		}
	}},

	// Two layers of single-head attention; ev is the one Self-side input.
	"gat": {declare: func(s ModelSpec, in, _ int) *program {
		layer := func(l string, width int, a activation) stage {
			return stage{
				dense: []dense{{out: "hw" + l, w: "W" + l},
					{out: "eu" + l, in: "hw" + l, w: "aU" + l}, {out: "ev" + l, in: "hw" + l, w: "aV" + l}},
				plan: &plan{trace: func() (*gir.DAG, error) {
					b := gir.NewBuilder()
					b.VFeature("eu", 1)
					b.VFeature("ev", 1)
					b.VFeature("h", width)
					return b.Build(func(v *gir.Vertex) *gir.Value {
						e := v.Nbr("eu").Add(v.Self("ev")).LeakyReLU(0.2).Exp()
						a := e.Div(e.AggSum())
						return a.Mul(v.Nbr("h")).AggSum()
					})
				}},
				values: []bind{{"eu", "eu" + l}, {"ev", "ev" + l}, {"h", "hw" + l}},
				act:    a,
			}
		}
		return &program{
			weights: []weight{wt("W1", in, s.Hidden), wt("aU1", s.Hidden, 1), wt("aV1", s.Hidden, 1),
				wt("W2", s.Hidden, s.Classes), wt("aU2", s.Classes, 1), wt("aV2", s.Classes, 1)},
			stages: []stage{layer("1", s.Hidden, tensor.ReLU), layer("2", s.Classes, nil)},
		}
	}},

	// An MLP (dense in the first stage), then K personalized-PageRank
	// steps that each read the previous step's output and the MLP's h0
	// whole — neither is a dense output of the step's own stage, so deltas
	// cannot patch it.
	"appnp": {
		defaults: func(s *ModelSpec) {
			if s.Alpha <= 0 || s.Alpha >= 1 {
				s.Alpha = 0.1
			}
			if s.K < 1 {
				s.K = 10
			}
		},
		declare: func(s ModelSpec, in, _ int) *program {
			p := &program{weights: []weight{wt("W1", in, s.Hidden), wt("W2", s.Hidden, s.Classes)}}
			step := stage{
				plan: &plan{trace: func() (*gir.DAG, error) {
					b := gir.NewBuilder()
					b.VFeature("h", s.Classes)
					b.VFeature("h0", s.Classes)
					b.VFeature("sn", 1)
					b.VFeature("dn", 1)
					return b.Build(func(v *gir.Vertex) *gir.Value {
						agg := v.Nbr("h").Mul(v.Nbr("sn")).AggSum()
						return agg.Mul(v.Self("dn")).MulScalar(1 - s.Alpha).
							Add(v.Self("h0").MulScalar(s.Alpha))
					})
				}},
				values: []bind{{"h", ""}, {"h0", "h0"}},
				norms:  []normBind{{"sn", normSymSrc}, {"dn", normSymDst}},
			}
			for k := 0; k < s.K; k++ {
				p.stages = append(p.stages, step)
			}
			p.stages[0].dense = []dense{{out: "h1", w: "W1", act: tensor.ReLU}, {out: "h0", in: "h1", w: "W2"}}
			p.stages[0].values = []bind{{"h", "h0"}, {"h0", "h0"}}
			return p
		},
	},

	// Two relational layers: a per-edge-type transform of the neighbour's
	// row, normalized per (vertex, relation), plus a self loop.
	"rgcn": {declare: func(s ModelSpec, in, numRel int) *program {
		layer := func(l string, in, out int, a activation) stage {
			return stage{
				dense: []dense{{out: "self" + l, w: "Wself" + l}},
				plan: &plan{trace: func() (*gir.DAG, error) {
					b := gir.NewBuilder()
					b.VFeature("h", in)
					b.EFeature("norm", 1)
					Ws := b.Param("W", numRel, in, out)
					return b.Build(func(v *gir.Vertex) *gir.Value {
						return v.Nbr("h").MatMulTyped(Ws).Mul(v.Edge("norm")).AggHier(gir.AggSum, gir.AggSum)
					})
				}},
				values: []bind{{"h", ""}},
				norms:  []normBind{{"norm", normEdgeRel}},
				params: []bind{{"W", "Ws" + l}},
				plus:   "self" + l, act: a,
			}
		}
		return &program{
			weights: []weight{wt("Ws1", numRel, in, s.Hidden), wt("Wself1", in, s.Hidden),
				wt("Ws2", numRel, s.Hidden, s.Classes), wt("Wself2", s.Hidden, s.Classes)},
			stages: []stage{layer("1", in, s.Hidden, tensor.ReLU), layer("2", s.Hidden, s.Classes, nil)},
		}
	}},
}

// typed reports whether a plan binds an edge feature or a per-edge-type
// parameter: it then needs edge types, which sampled subgraphs drop,
// fragments cannot split from their relation tables and the chunked delta
// graph does not track.
func (p *program) typed() bool {
	return slices.ContainsFunc(p.stages, func(s stage) bool {
		return len(s.params) > 0 || slices.ContainsFunc(s.norms, func(n normBind) bool { return n.ref == normEdgeRel })
	})
}

// binds reports whether s's plan or post op reads the named value ("" is
// the stage input).
func (s *stage) binds(name string) bool {
	return name != "" && name == s.plus || slices.ContainsFunc(s.values, func(v bind) bool { return v.name == name })
}

// crossing returns the values s's plan reads through Nbr, each once, in
// binding order ("" is the stage input). They are all a fragment must
// import into its mirror rows before running s: Self-side values are read
// at owned rows only, normalizers come from fragment-carried degrees.
func (s *stage) crossing() []string {
	var names []string
	for _, v := range s.values {
		if !s.plan.self[v.key] && !slices.Contains(names, v.name) {
			names = append(names, v.name)
		}
	}
	return names
}

// shardWidths returns, per exchange round of sharded serving (one per
// stage), the row width of what the round sends: the next stage's crossing
// values side by side, or after the last round the logits, which stay
// with their master until gathered. A typed program is refused.
func (p *program) shardWidths(arch string) ([]int, error) {
	if p.typed() {
		return nil, fmt.Errorf("serve: sharded serving does not support %s (typed edge rows cannot split from their relation tables)", arch)
	}
	for i := range p.stages {
		if pl := p.stages[i].plan; pl.self == nil {
			if _, err := pl.sides(); err != nil {
				return nil, fmt.Errorf("serve: stage %d: %w", i+1, err)
			}
		}
	}
	widths := make([]int, len(p.stages))
	for i := range p.stages {
		if i+1 == len(p.stages) {
			widths[i] = p.stages[i].plan.width
			continue
		}
		for _, name := range p.stages[i+1].crossing() {
			widths[i] += p.valueWidth(i+1, name)
		}
	}
	return widths, nil
}

// valueWidth is the row width of a value stage i binds: the stage input's
// is the previous plan's output width, a dense output's its weight's last
// dimension.
func (p *program) valueWidth(i int, name string) int {
	if name == "" {
		return p.stages[i-1].plan.width
	}
	for _, s := range p.stages[:i+1] {
		if j := denseIndex(s.dense, name); j >= 0 {
			w := p.weights[slices.IndexFunc(p.weights, func(w weight) bool { return w.name == s.dense[j].w })]
			return w.shape[len(w.shape)-1]
		}
	}
	panic(fmt.Sprintf("serve: stage %d binds unknown value %q", i+1, name))
}

// incremental reports whether a delta can be patched stage by stage over
// a k-hop frontier: every vertex input of every plan must be a dense
// output of its own stage (dirty where the stage's input is, kept from the
// parent elsewhere) or a vertex normalizer (patched with the degrees). A
// stage input or earlier output read whole would need keeping for every row.
func (p *program) incremental() bool {
	for _, s := range p.stages {
		for _, v := range s.values {
			if denseIndex(s.dense, v.name) < 0 {
				return false
			}
		}
	}
	return !p.typed()
}

// setNorms binds in env the normalizers p's plans read: snap's cached
// ones, or without a snap computed from deg (per edge: from env.G).
func (p *program) setNorms(env *ForwardEnv, snap *Snapshot, deg degrees) {
	for _, s := range p.stages {
		for _, n := range s.norms {
			switch {
			case env.norms[n.ref] != nil:
			case snap != nil:
				env.norms[n.ref] = snap.normFor(n.ref)
			case n.ref == normEdgeRel:
				env.norms[n.ref] = datasets.RGCNEdgeNorm(env.G)
			default:
				env.norms[n.ref] = degreeNorm(n.ref, deg, env.get)
			}
		}
	}
}

func denseIndex(ops []dense, name string) int {
	return slices.IndexFunc(ops, func(d dense) bool { return d.out == name })
}

// newModel draws p's weights from spec.Seed and compiles its plans — the
// expensive path the plan cache deduplicates. A name in p that resolves
// to nothing is a bug in the table and panics at first use.
func newModel(spec ModelSpec, inDim, numRel int, p *program) (*Model, error) {
	if inDim < 1 {
		return nil, fmt.Errorf("serve: input dim %d must be ≥ 1", inDim)
	}
	m := &Model{Spec: spec, InDim: inDim, NumRel: 1, prog: p, weights: map[string]*tensor.Tensor{}}
	if p.typed() {
		if numRel < 1 {
			return nil, fmt.Errorf("serve: %s needs ≥ 1 relation, got %d", spec.Arch, numRel)
		}
		m.NumRel = numRel
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for _, w := range p.weights {
		if d := len(w.shape); d == 1 {
			m.weights[w.name] = tensor.New(w.shape...)
		} else {
			l := math.Sqrt(6 / float64(w.shape[d-2]+w.shape[d-1]))
			m.weights[w.name] = tensor.Uniform(rng, -l, l, w.shape...)
		}
	}
	for i, s := range p.stages {
		if s.plan.udf == nil {
			if err := s.plan.compile(); err != nil {
				return nil, fmt.Errorf("serve: stage %d: %w", i+1, err)
			}
		}
	}
	return m, nil
}

// compile traces the vertex program (sides) and compiles it for inference.
func (pl *plan) compile() error {
	dag, err := pl.sides()
	if err != nil {
		return err
	}
	pl.udf, err = exec.CompileInference(dag)
	return err
}

// sides traces the vertex program and records which side each vertex key
// is read from and the output's row width.
func (pl *plan) sides() (*gir.DAG, error) {
	dag, err := pl.trace()
	if err != nil {
		return nil, err
	}
	self, nbr := map[string]bool{}, map[string]bool{}
	for _, n := range dag.Nodes {
		if n.Op != gir.OpLeaf {
			continue
		}
		switch n.LeafKind {
		case gir.LeafSrcFeat:
			nbr[n.Key] = true
		case gir.LeafDstFeat:
			self[n.Key] = true
		}
		if nbr[n.Key] && self[n.Key] {
			return nil, fmt.Errorf("vertex key %q is read through both Nbr and Self; bind the value under two keys", n.Key)
		}
	}
	pl.self, pl.width = self, 1
	for _, d := range dag.Outputs[0].Shape {
		pl.width *= d
	}
	return dag, nil
}

// frontier is the row context of a stage run over part of a graph: a
// destination-compact in-CSR g whose row ids index output rows — a plan
// over g writes [len(rows), C], row i for vertex rows[i] — and whose
// neighbour ids index the value tensors, n rows each: global ids for a
// delta (dirtyFrontiers, one per hop), local ids for a fragment (its owned
// rows, every stage). Each row holds its vertex's whole in-list in the
// full graph's order, so per-row folds see the neighbour values and order
// the full graph would: a frontier run is bitwise. Edge ids are slot
// indices. dirty is the vertices whose stage input changed: the rows the
// run's h stands for.
type frontier struct {
	dirty, rows []int32
	g           *graph.Graph
	n           int
}

// run is one pass of a model's program over a row context: the single
// implementation behind Model.Forward and EnsureEmbeddings (all rows of
// env.G), the delta patcher (patch: each stage over a frontier) and
// ShardForward (a fragment's frontier, the caller exchanging mirror rows
// of the next stage's crossing values between steps).
type run struct {
	m   *Model
	env *ForwardEnv // the graph plans walk, its normalizers, pool
	// fullRows is N of the whole graph, replayed into every dense dispatch
	// so a row computed here has the bits it has in the full product.
	fullRows int
	// vals holds the dense outputs by name, over every vertex a neighbour
	// id names: a patch's are the parent's, a frontier run draws the rest.
	vals map[string]*tensor.Tensor

	h    *tensor.Tensor // the next stage's input: at first, the features
	done int            // stages completed
}

// step runs the next stage over all rows of env.G, or (patch) over f's:
// the plan then walks f.g, reading Nbr-side inputs from the value tensors
// and Self-side ones gathered to f.rows. h becomes the stage's output.
func (r *run) step(f *frontier) error {
	r.dense(f)
	out, err := r.aggregate(f)
	if err != nil {
		return err
	}
	r.post(out, f)
	return nil
}

// dense runs the next stage's dense products over every row of its input
// h, each dispatched as a [fullRows, k] multiply. Without a frontier the
// products are the values; over one, h's rows are f.dirty and each
// product is scattered there. An operand goes back to the pool after its
// last reader: a request holds a layer's input or its output, never both.
func (r *run) dense(f *frontier) {
	s := &r.m.prog.stages[r.done]
	outs := make([]*tensor.Tensor, len(s.dense))
	for i, op := range s.dense {
		src := r.h
		if op.in != "" {
			src = outs[denseIndex(s.dense, op.in)]
		}
		w := r.m.weights[op.w]
		out := tensor.MatMulRowsLike(src, w, r.fullRows, r.env.get(src.Rows(), w.Cols()))
		if op.act != nil {
			op.act(out, out)
		}
		outs[i] = out
		if f == nil {
			r.vals[op.out] = out
		} else {
			if r.vals[op.out] == nil {
				r.vals[op.out] = r.env.get(f.n, w.Cols())
			}
			setRows(r.vals[op.out], f.dirty, out)
		}
		if !s.binds(op.in) && !slices.ContainsFunc(s.dense[i+1:], func(o dense) bool { return o.in == op.in }) {
			r.env.recycle(src)
		}
	}
	if f != nil {
		for _, out := range outs {
			r.env.recycle(out)
		}
	}
}

// aggregate runs the next stage's compiled plan and returns its output.
func (r *run) aggregate(f *frontier) (*tensor.Tensor, error) {
	s := &r.m.prog.stages[r.done]
	in := r.h
	ie := &exec.InferEnv{G: r.env.G, Pool: r.env.Pool, Result: r.env.get}
	if f != nil {
		ie.G = f.g
	}
	vfeat := make(map[string]*tensor.Tensor, len(s.values)+len(s.norms))
	var gathered []*tensor.Tensor // Self-side inputs drawn for f's rows
	bindVertex := func(key string, t *tensor.Tensor) {
		if vfeat[key] = r.side(f, t, s.plan.self[key]); vfeat[key] != t {
			gathered = append(gathered, vfeat[key])
		}
	}
	var efeat, params map[string]*tensor.Tensor // nil unless the plan is typed
	for _, v := range s.values {
		t := in
		if v.name != "" {
			t = r.vals[v.name]
		}
		bindVertex(v.key, t)
	}
	for _, n := range s.norms {
		if n.ref == normEdgeRel {
			efeat = map[string]*tensor.Tensor{n.key: r.env.norms[n.ref]}
		} else {
			bindVertex(n.key, r.env.norms[n.ref])
		}
	}
	for _, p := range s.params {
		if params == nil {
			params = map[string]*tensor.Tensor{}
		}
		params[p.key] = r.m.weights[p.name]
	}
	out, err := s.plan.udf.Infer(ie, vfeat, efeat, params)
	for _, t := range gathered {
		r.env.recycle(t)
	}
	if err != nil {
		return nil, err
	}
	if s.binds("") {
		r.env.recycle(in)
	}
	return out, nil
}

// post applies the next stage's row-wise post ops to its plan output in
// place and makes out the next stage's input — over a frontier, one the
// next plan reads through Nbr is drawn over the neighbour-id space with
// f's rows set (a fragment's mirror rows then arrive by exchange).
func (r *run) post(out *tensor.Tensor, f *frontier) {
	s := &r.m.prog.stages[r.done]
	if s.bias != "" {
		tensor.AddRow(out, r.m.weights[s.bias], out)
	}
	if s.plus != "" {
		v := r.side(f, r.vals[s.plus], true)
		tensor.Add(out, v, out)
		r.env.recycle(v)
	}
	if s.act != nil {
		s.act(out, out)
	}
	r.h = out
	r.done++
	if f != nil && r.done < len(r.m.prog.stages) && slices.Contains(r.m.prog.stages[r.done].crossing(), "") {
		r.h = r.env.get(f.n, out.Cols())
		setRows(r.h, f.rows, out)
		r.env.recycle(out)
	}
}

// side is t as a plan over f reads it: whole, or gathered to f's rows —
// drawn from env — when read through Self. Without a frontier it is t.
func (r *run) side(f *frontier, t *tensor.Tensor, self bool) *tensor.Tensor {
	if f == nil || !self {
		return t
	}
	out := r.env.get(len(f.rows), t.Cols())
	for i, v := range f.rows {
		copy(out.Row(i), t.Row(int(v)))
	}
	return out
}
