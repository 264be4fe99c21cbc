package serve

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seastar/internal/gir"
	"seastar/internal/graph"
	"seastar/internal/program"
	"seastar/internal/tensor"
)

func sameBits(a, b *tensor.Tensor) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, x := range a.Data() {
		if math.Float32bits(x) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// gatedProgram is a fifth architecture, built through the constructor the
// table's four go through and known to no driver: len(widths) layers of
// the gated aggregation examples/custom trains,
//
//	gate_uv = sigmoid(s_u + s_v)    h'_v = Σ_u gate_uv·h_u / (Σ_u gate_uv + 1e-6)
//
// with h = x·W, s = h·g, ReLU between layers. The example reads s both
// ways under one key; a served program binds it under two (su through
// Nbr, sv through Self), because over a frontier the two sides index
// different tensors.
func gatedProgram(in int, widths ...int) *program.Program {
	p := &program.Program{}
	for i, width := range widths {
		l := strconv.Itoa(i + 1)
		p.Weights = append(p.Weights, program.Weight{Name: "W" + l, Shape: []int{in, width}}, program.Weight{Name: "g" + l, Shape: []int{width, 1}})
		s := program.Stage{
			Dense: []program.Dense{{Out: "hw" + l, W: "W" + l}, {Out: "s" + l, In: "hw" + l, W: "g" + l}},
			Plan: &program.Plan{Trace: func() (*gir.DAG, error) {
				b := gir.NewBuilder()
				b.VFeature("su", 1)
				b.VFeature("sv", 1)
				b.VFeature("h", width)
				return b.Build(func(v *gir.Vertex) *gir.Value {
					gate := v.Nbr("su").Add(v.Self("sv")).Sigmoid()
					num := gate.Mul(v.Nbr("h")).AggSum()
					out := num.Div(gate.AggSum().AddScalar(1e-6))
					if i < len(widths)-1 {
						out = out.ReLU()
					}
					return out
				})
			}},
			Values: []program.Bind{{Key: "su", Name: "s" + l}, {Key: "sv", Name: "s" + l}, {Key: "h", Name: "hw" + l}},
		}
		p.Stages = append(p.Stages, s)
		in = width
	}
	return p
}

// TestProgramDrivers runs the gated program through all three drivers of
// the stage runner and holds each to the all-rows forward, bit for bit.
// No line of driver code names it.
func TestProgramDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.ZipfDegree(rng, 800, 6, 1.0)
	const dim = 10
	feat := tensor.Randn(rng, 1, g.N, dim)
	m, err := newModel(ModelSpec{Arch: "gated", Hidden: 12, Classes: 4, Seed: 9}, dim, 1, gatedProgram(dim, 12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if widths, err := m.ShardWidths(); err != nil || !slices.Equal(widths, []int{5, 4}) || !m.SupportsIncremental() || m.prog.Typed() {
		t.Fatalf("derived properties: shard widths %v (%v), incremental %v, typed %v; want [5 4] (su + h, then logits), true, false",
			widths, err, m.SupportsIncremental(), m.prog.Typed())
	}

	want := fullForward(t, g, feat, m)
	if want.Rows() != g.N || want.Cols() != 4 {
		t.Fatalf("logits [%d,%d], want [%d,4]", want.Rows(), want.Cols(), g.N)
	}
	for _, k := range []int{2, 3} {
		if got := runSharded(t, g, feat, m, k); !sameBits(got, want) {
			t.Errorf("%d fragments stepped and merged differ from the full forward", k)
		}
	}

	// A delta chain, every step patched incrementally and compared with a
	// rebuild of the child from its flat graph and features.
	snap, err := NewSnapshot(g, feat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.EnsureEmbeddings(m, &ForwardEnv{}); err != nil {
		t.Fatal(err)
	}
	row := func() []float32 { return tensor.Randn(rng, 1, 1, dim).Data() }
	edge := func(i int) graph.Edge { return graph.Edge{Src: g.Srcs[i], Dst: g.Dsts[i]} }
	n := int32(g.N)
	chain := []*Delta{
		{AddEdges: []graph.Edge{{Src: 5, Dst: 9}, {Src: 700, Dst: 5}, {Src: 31, Dst: 31}}},
		{RemoveEdges: []graph.Edge{edge(0), edge(17)}},
		{Features: []FeatureUpdate{{Node: 2, Row: row()}, {Node: 640, Row: row()}}},
		{AddVertices: 3, AddEdges: []graph.Edge{{Src: n, Dst: 4}, {Src: 12, Dst: n + 1}, {Src: n + 2, Dst: n}},
			Features: []FeatureUpdate{{Node: n + 1, Row: row()}}},
		{RemoveVertices: []int32{77}, AddEdges: []graph.Edge{{Src: n + 2, Dst: 300}}},
		{AddVertices: 1, RemoveEdges: []graph.Edge{edge(40)}, AddEdges: []graph.Edge{{Src: 8, Dst: n + 3}},
			Features: []FeatureUpdate{{Node: 8, Row: row()}}},
	}
	opt := &DeltaOptions{Model: m, FrontierLimit: 1, Pool: tensor.NewPool()}
	for i, d := range chain {
		child, st, err := ApplyDelta(snap, d, opt)
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if st.Recompute != "incremental" {
			t.Fatalf("step %d recomputed %q, want incremental", i+1, st.Recompute)
		}
		got, err := child.EnsureEmbeddings(m, &ForwardEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt := fullForward(t, child.Graph(), child.Features(), m); !sameBits(got, rebuilt) {
			t.Fatalf("step %d: patched logits differ from a rebuild", i+1)
		}
		snap = child
	}
}

// TestProgramProperties pins what the engine, the delta path and the
// shard protocol derive from the four shipped programs to the answers the
// per-architecture switches used to give, and the one build error the
// runner's frontier mode depends on.
func TestProgramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	typed := graph.ZipfDegree(rng, 30, 3, 1.0)
	graph.RandomEdgeTypes(rng, typed, 2)
	for _, tc := range []struct {
		arch        string
		widths      []int // nil: sharded serving refuses it
		incremental bool
		typed       bool
		norms       []program.Norm
	}{
		// What crosses a shard boundary is what the next plan reads
		// through Nbr: GCN hw2, GAT eu2 and hw2, APPNP its stage input.
		{"gcn", []int{3, 3}, true, false, []program.Norm{program.NormInDeg}},
		{"gat", []int{4, 3}, true, false, nil},
		{"appnp", []int{3, 3, 3, 3, 3, 3, 3}, false, false, []program.Norm{program.NormSymSrc, program.NormSymDst}},
		{"rgcn", nil, false, true, []program.Norm{program.NormEdgeRel}},
	} {
		spec := ModelSpec{Arch: tc.arch, Hidden: 8, Classes: 3, K: 7, Seed: 1}
		m, err := BuildModel(spec, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		widths, err := m.ShardWidths()
		specWidths, specErr := ShardWidthsForSpec(spec)
		if !slices.Equal(widths, tc.widths) || !slices.Equal(specWidths, tc.widths) || (err != nil) != (tc.widths == nil) || (specErr != nil) != (tc.widths == nil) {
			t.Errorf("%s: shard widths %v (%v) / %v (%v) from the spec, want %v", tc.arch, widths, err, specWidths, specErr, tc.widths)
		}
		if m.SupportsIncremental() != tc.incremental || m.prog.Typed() != tc.typed {
			t.Errorf("%s: incremental %v typed %v, want %v %v", tc.arch, m.SupportsIncremental(), m.prog.Typed(), tc.incremental, tc.typed)
		}
		env := &ForwardEnv{G: typed}
		setNorms(m.prog, env, nil, typed)
		for ref, bound := range env.norms {
			if (bound != nil) != slices.Contains(tc.norms, program.Norm(ref)) {
				t.Errorf("%s: normalizer %d bound = %v, want exactly %v bound", tc.arch, ref, bound != nil, tc.norms)
			}
		}
	}
	if widths, err := ShardWidthsForSpec(ModelSpec{Arch: "appnp", Hidden: 8, Classes: 3}); err != nil || len(widths) != 10 {
		t.Errorf("appnp with K unset: %d rounds (%v), want the default 10", len(widths), err)
	}

	bothWays := gatedProgram(6, 4)
	bothWays.Stages[0].Plan = &program.Plan{Trace: func() (*gir.DAG, error) {
		b := gir.NewBuilder()
		b.VFeature("su", 1)
		b.VFeature("h", 4)
		return b.Build(func(v *gir.Vertex) *gir.Value {
			return v.Nbr("su").Add(v.Self("su")).Mul(v.Nbr("h")).AggSum()
		})
	}}
	if _, err := newModel(ModelSpec{Arch: "both-ways"}, 6, 1, bothWays); err == nil || !strings.Contains(err.Error(), "both Nbr and Self") {
		t.Errorf("a key read through Nbr and Self built: %v", err)
	}
}
