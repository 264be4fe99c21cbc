// Package program is the one definition of every GNN architecture (DESIGN
// §8): a layer program declared once, as data, in the table (table.go),
// and two lowerings of it. Serving's runner (internal/serve) applies a
// program's stages to all rows, a delta's dirty rows or a shard fragment's
// owned rows; the nn lowering (nn.go) runs it on an nn.Engine, where
// autograd and the compiled backward make it trainable (internal/models,
// internal/train). What the engine, the delta path and the shard protocol
// must know of an architecture is derived from its program here.
// scripts/ci.sh fails if an architecture is named outside table.go.
package program

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"seastar/internal/datasets"
	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Spec is the canonical configuration of one registered architecture.
// Equal specs always denote the same function: weights are drawn
// deterministically from Seed.
type Spec struct {
	Arch    string // a name in the table
	Hidden  int
	Classes int
	Alpha   float32 // APPNP teleport probability
	K       int     // APPNP propagation steps
	Seed    int64   // weight-initialization seed
}

// Validate checks the spec and fills its architecture's defaults.
func (s *Spec) Validate() error {
	s.Arch = strings.ToLower(s.Arch)
	a, ok := programs[s.Arch]
	if !ok {
		var known []string
		for name := range programs {
			known = append(known, name)
		}
		slices.Sort(known)
		return fmt.Errorf("program: unknown arch %q (want %s)", s.Arch, strings.Join(known, "|"))
	}
	if s.Hidden < 1 || s.Classes < 1 {
		return fmt.Errorf("program: hidden=%d classes=%d must be ≥ 1", s.Hidden, s.Classes)
	}
	if a.defaults != nil {
		a.defaults(s)
	}
	return nil
}

// Key is the canonical string form used in the plan-cache key.
func (s Spec) Key() string {
	return fmt.Sprintf("%s/h%d/c%d/a%g/k%d/s%d", s.Arch, s.Hidden, s.Classes, s.Alpha, s.K, s.Seed)
}

// Declare returns a validated spec's program against an input width and
// relation count.
func (s Spec) Declare(inDim, numRel int) *Program {
	return programs[s.Arch].declare(s, inDim, numRel)
}

// A Program is the weights in the order they are drawn and the stages;
// the first stage's input is the features.
type Program struct {
	Weights []Weight
	Stages  []Stage
}

// Weight is one parameter tensor: Glorot-uniform over its last two
// dimensions, or — 1-D, a bias — zeros, which draw nothing from the seed.
type Weight struct {
	Name  string
	Shape []int
}

func wt(name string, shape ...int) Weight { return Weight{name, shape} }

// Draw is the one initialization rule every lowering uses: both draw a
// program's weights in order from one seeded rng.
func (w Weight) Draw(rng *rand.Rand) *tensor.Tensor {
	d := len(w.Shape)
	if d == 1 {
		return tensor.New(w.Shape...)
	}
	l := math.Sqrt(6 / float64(w.Shape[d-2]+w.Shape[d-1]))
	return tensor.Uniform(rng, -l, l, w.Shape...)
}

// Act is a named row-wise activation; each lowering maps it to its own op.
type Act int

const (
	None    Act = iota // identity
	ReLU               // max(x, 0)
	Sigmoid            // 1/(1+e⁻ˣ)
)

// Apply applies a to t in place (serving's lowering).
func (a Act) Apply(t *tensor.Tensor) {
	switch a {
	case ReLU:
		tensor.ReLU(t, t)
	case Sigmoid:
		tensor.Sigmoid(t, t)
	}
}

// Dense is one row-wise product Out = act(In·W); In names an earlier
// dense output of the stage, or is "" for the stage input. A row of the
// result depends on that row of the input alone, which is what lets
// serving cover all rows, only dirty ones, or a fragment's.
type Dense struct {
	Out, In, W string
	Act        Act
}

// A Stage is one message-passing layer: dense products, one compiled
// vertex program with every input bound by key, then row-wise post ops in
// place on its output. Stages are the exchange rounds of sharded serving
// and the hops of a delta's frontier. A stage without a plan is dense
// only — its output is its last dense output — which only the nn lowering
// runs (a GIN's closing MLP, as internal/models' tests declare it);
// serving refuses it.
type Stage struct {
	Dense  []Dense
	Plan   *Plan      // stages running the same vertex program share one
	Values []Bind     // ← a dense output of this or an earlier stage, or "" for the stage input
	Norms  []NormBind // ← a graph normalizer
	Params []Bind     // ← a weight, read inside the plan

	// Post ops, in this order: += a weight broadcast over rows, += a dense
	// output of this stage row for row, an activation.
	Bias, Plus string
	Act        Act
}

// Bind binds the plan input Key to the value or weight Name.
type Bind struct{ Key, Name string }

// NormBind binds the plan input Key to a graph normalizer.
type NormBind struct {
	Key string
	Ref Norm
}

// Plan is one traced vertex program. Sides records which vertex keys it
// reads through Self (the rest it reads through Nbr) and its output's row
// width.
type Plan struct {
	Trace func() (*gir.DAG, error)
	self  map[string]bool
	width int
}

// Sides traces the vertex program and records which side each vertex key
// is read from and the output's row width. Over a serving frontier the two
// sides index different tensors, so no key may be both.
func (pl *Plan) Sides() (*gir.DAG, error) {
	dag, err := pl.Trace()
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

// Self reports whether the plan reads key through Self (after Sides).
func (pl *Plan) Self(key string) bool { return pl.self[key] }

// Norm names a graph normalizer a plan input can bind.
type Norm int

const (
	NormInDeg   Norm = iota // per vertex, 1/in-degree
	NormSymSrc              // per vertex, 1/√out-degree
	NormSymDst              // per vertex, 1/√in-degree
	NormEdgeRel             // per edge, 1/c_{v,r} (needs edge types)
	NumNorms                // the number of normalizers, for arrays indexed by Norm
)

// vertexNorms is the one statement of each per-vertex normalizer: which
// degree it reads and what it makes of a non-zero one (an isolated vertex
// gets 0). Every path evaluates it, so every scalar matches bit for bit.
var vertexNorms = [...]struct {
	out bool
	f   func(d int) float32
}{
	NormInDeg:  {false, func(d int) float32 { return 1 / float32(d) }},
	NormSymSrc: {true, func(d int) float32 { return float32(1 / math.Sqrt(float64(d))) }},
	NormSymDst: {false, func(d int) float32 { return float32(1 / math.Sqrt(float64(d))) }},
}

// Out reports whether vertex normalizer n reads out-degrees.
func (n Norm) Out() bool { return vertexNorms[n].out }

// At is vertex normalizer n at a non-zero degree d.
func (n Norm) At(d int) float32 { return vertexNorms[n].f(d) }

// Degrees is what a vertex normalizer reads: a graph or a fragment.
type Degrees interface {
	InDegrees() []int32
	OutDegrees() []int32
}

// Vertex evaluates vertex normalizer n over deg, one row per vertex, into
// a tensor from get.
func (n Norm) Vertex(deg Degrees, get func(shape ...int) *tensor.Tensor) *tensor.Tensor {
	d := deg.InDegrees()
	if n.Out() {
		d = deg.OutDegrees()
	}
	t := get(len(d), 1)
	for v, x := range d {
		if x > 0 {
			t.Set(v, 0, n.At(int(x)))
		}
	}
	return t
}

// Of evaluates n over g: per vertex, or per edge from g's edge types.
func (n Norm) Of(g *graph.Graph, get func(shape ...int) *tensor.Tensor) *tensor.Tensor {
	if n == NormEdgeRel {
		return datasets.RGCNEdgeNorm(g)
	}
	return n.Vertex(g, get)
}

// Norms lists the normalizers p's stages bind, each once, in binding order.
func (p *Program) Norms() []Norm {
	var refs []Norm
	for _, s := range p.Stages {
		for _, n := range s.Norms {
			if !slices.Contains(refs, n.Ref) {
				refs = append(refs, n.Ref)
			}
		}
	}
	return refs
}

// Depth is the number of p's stages that aggregate over in-neighbours: a
// row of p's output reads vertices at most Depth hops upstream, so a
// sampled block needs no deeper hop. A dense-only stage adds none.
func (p *Program) Depth() int {
	d := 0
	for _, s := range p.Stages {
		if s.Plan != nil {
			d++
		}
	}
	return d
}

// Typed reports whether a plan binds an edge feature or a per-edge-type
// (3-D) parameter: it then needs edge types, which sampled subgraphs drop,
// fragments cannot split from their relation tables and the chunked delta
// graph does not track.
func (p *Program) Typed() bool {
	return slices.ContainsFunc(p.Stages, func(s Stage) bool {
		return slices.ContainsFunc(s.Params, func(b Bind) bool { return len(p.weight(b.Name).Shape) == 3 }) ||
			slices.ContainsFunc(s.Norms, func(n NormBind) bool { return n.Ref == NormEdgeRel })
	})
}

// weight returns the declared weight called name.
func (p *Program) weight(name string) Weight {
	return p.Weights[slices.IndexFunc(p.Weights, func(w Weight) bool { return w.Name == name })]
}

// Binds reports whether s's plan or post op reads the named value ("" is
// the stage input).
func (s *Stage) Binds(name string) bool {
	return name != "" && name == s.Plus || slices.ContainsFunc(s.Values, func(v Bind) bool { return v.Name == name })
}

// Crossing returns the values s's plan reads through Nbr, each once, in
// binding order ("" is the stage input). They are all a fragment must
// import into its mirror rows before running s: Self-side values are read
// at owned rows only, normalizers come from fragment-carried degrees.
func (s *Stage) Crossing() []string {
	var names []string
	for _, v := range s.Values {
		if !s.Plan.self[v.Key] && !slices.Contains(names, v.Name) {
			names = append(names, v.Name)
		}
	}
	return names
}

// ShardWidths returns, per exchange round of sharded serving (one per
// stage), the row width of what the round sends: the next stage's crossing
// values side by side, or after the last round the logits, which stay
// with their master until gathered. A typed program is refused.
func (p *Program) ShardWidths(arch string) ([]int, error) {
	if p.Typed() {
		return nil, fmt.Errorf("program: sharded serving does not support %s (typed edge rows cannot split from their relation tables)", arch)
	}
	for i := range p.Stages {
		if pl := p.Stages[i].Plan; pl.self == nil {
			if _, err := pl.Sides(); err != nil {
				return nil, fmt.Errorf("program: stage %d: %w", i+1, err)
			}
		}
	}
	widths := make([]int, len(p.Stages))
	for i := range p.Stages {
		if i+1 == len(p.Stages) {
			widths[i] = p.Stages[i].Plan.width
			continue
		}
		for _, name := range p.Stages[i+1].Crossing() {
			widths[i] += p.valueWidth(i+1, name)
		}
	}
	return widths, nil
}

// valueWidth is the row width of a value stage i binds: the stage input's
// is the previous plan's output width, a dense output's its weight's last
// dimension.
func (p *Program) valueWidth(i int, name string) int {
	if name == "" {
		return p.Stages[i-1].Plan.width
	}
	for _, s := range p.Stages[:i+1] {
		if j := DenseIndex(s.Dense, name); j >= 0 {
			w := p.weight(s.Dense[j].W)
			return w.Shape[len(w.Shape)-1]
		}
	}
	panic(fmt.Sprintf("program: stage %d binds unknown value %q", i+1, name))
}

// Incremental reports whether a delta can be patched stage by stage over
// a k-hop frontier: every vertex input of every plan must be a dense
// output of its own stage (dirty where the stage's input is, kept from the
// parent elsewhere) or a vertex normalizer (patched with the degrees). A
// stage input or earlier output read whole would need keeping for every row.
func (p *Program) Incremental() bool {
	for _, s := range p.Stages {
		for _, v := range s.Values {
			if DenseIndex(s.Dense, v.Name) < 0 {
				return false
			}
		}
	}
	return !p.Typed()
}

// DenseIndex returns the index of the dense op producing name, or -1.
func DenseIndex(ops []Dense, name string) int {
	return slices.IndexFunc(ops, func(d Dense) bool { return d.Out == name })
}
