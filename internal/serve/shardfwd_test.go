package serve

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/part"
	"seastar/internal/tensor"
)

// runSharded partitions g, steps every fragment through the model with
// mirror exchanges between rounds (the coordinator loop, in-process),
// and merges owned logits back into vertex-id order.
func runSharded(t *testing.T, g *graph.Graph, feat *tensor.Tensor, m *Model, k int) *tensor.Tensor {
	t.Helper()
	p, err := part.Build(g, k, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool()
	sfs := make([]*ShardForward, k)
	for s, f := range p.Frags {
		env := NewShardEnv(f, feat, pool)
		sf, err := NewShardForward(m, env)
		if err != nil {
			t.Fatal(err)
		}
		sfs[s] = sf
	}
	widths, err := m.ShardWidths()
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= len(widths); r++ {
		for _, sf := range sfs {
			if err := sf.StepShard(); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if r == len(widths) {
			break
		}
		// GAS exchange: every master scatters the owned rows of the next
		// stage's crossing values into its peers' mirror rows.
		for s, sf := range sfs {
			exp := sf.Exchanged()
			width := 0
			for _, x := range exp {
				width += x.Cols()
			}
			if width != widths[r-1] {
				t.Fatalf("round %d: shard %d exchanges width %d, ShardWidths says %d", r, s, width, widths[r-1])
			}
			for tt := 0; tt < k; tt++ {
				imp := sfs[tt].Exchanged()
				for i, row := range p.Frags[s].ExportTo[tt] {
					for j, x := range exp {
						copy(imp[j].Row(int(p.Frags[tt].ImportFrom[s][i])), x.Row(int(row)))
					}
				}
			}
		}
	}
	out := tensor.New(g.N, m.Spec.Classes)
	for s, sf := range sfs {
		logits, err := sf.Logits()
		if err != nil {
			t.Fatal(err)
		}
		f := p.Frags[s]
		for l := 0; l < f.Owned; l++ {
			copy(out.Row(int(f.Locals[l])), logits.Row(l))
		}
		sf.Release()
	}
	return out
}

func fullForward(t *testing.T, g *graph.Graph, feat *tensor.Tensor, m *Model) *tensor.Tensor {
	t.Helper()
	snap, err := NewSnapshot(g, feat)
	if err != nil {
		t.Fatal(err)
	}
	env := &ForwardEnv{
		G: snap.Graph(), Feat: snap.Features(),
		Pool: tensor.NewPool(),
	}
	NormsFor(m.Spec.Arch, snap, env.G, env)
	want, err := m.Forward(env)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardForwardBitwise is the sharded≡single-process equivalence
// property: for every supported arch and shard count {2, 4}, merging the
// fragments' owned logits reproduces the full forward bit for bit.
func TestShardForwardBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ZipfDegree(rng, 4000, 8, 1.0)
	const dim = 16
	feat := tensor.Randn(rng, 1, g.N, dim)

	for _, arch := range []string{"gcn", "gat", "appnp"} {
		spec := ModelSpec{Arch: arch, Hidden: 16, Classes: 4, Seed: 7, Alpha: 0.1, K: 4}
		m, err := BuildModel(spec, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := fullForward(t, g, feat, m)
		for _, k := range []int{2, 4} {
			got := runSharded(t, g, feat, m, k)
			diff := 0
			for v := 0; v < g.N && diff < 5; v++ {
				for j := 0; j < want.Cols(); j++ {
					if math.Float32bits(got.At(v, j)) != math.Float32bits(want.At(v, j)) {
						t.Errorf("%s k=%d: vertex %d col %d: sharded %g (%08x) vs full %g (%08x)",
							arch, k, v, j, got.At(v, j), math.Float32bits(got.At(v, j)),
							want.At(v, j), math.Float32bits(want.At(v, j)))
						diff++
						break
					}
				}
			}
			if diff > 0 {
				t.Fatalf("%s k=%d: sharded forward diverged", arch, k)
			}
		}
	}
}

// TestShardRejectsRGCN: typed-edge models cannot shard (relation tables
// would split from their rows); the error must be clean, not a panic.
func TestShardRejectsRGCN(t *testing.T) {
	m, err := BuildModel(ModelSpec{Arch: "rgcn", Hidden: 8, Classes: 4, Seed: 1}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ShardWidths(); err == nil {
		t.Fatal("rgcn accepted for sharding")
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.ZipfDegree(rng, 100, 4, 1.0)
	p, err := part.Build(g, 2, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	env := NewShardEnv(p.Frags[0], tensor.Randn(rng, 1, g.N, 8), tensor.NewPool())
	if _, err := NewShardForward(m, env); err == nil {
		t.Fatal("NewShardForward accepted rgcn")
	}
}

// TestShardStepSequence guards the stepped API contract: Logits before
// the final round errors, stepping past the end errors.
func TestShardStepSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ZipfDegree(rng, 200, 4, 1.0)
	feat := tensor.Randn(rng, 1, g.N, 8)
	m, err := BuildModel(ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 2}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := part.Build(g, 1, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewShardForward(m, NewShardEnv(p.Frags[0], feat, tensor.NewPool()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Logits(); err == nil {
		t.Fatal("Logits before final round")
	}
	if err := sf.StepShard(); err != nil {
		t.Fatal(err)
	}
	if err := sf.StepShard(); err != nil {
		t.Fatal(err)
	}
	if !sf.Done() {
		t.Fatal("not done after 2 rounds")
	}
	if err := sf.StepShard(); err == nil {
		t.Fatal("stepped past final round")
	}
	if _, err := sf.Logits(); err != nil {
		t.Fatal(err)
	}
}
