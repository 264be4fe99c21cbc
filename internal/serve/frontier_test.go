package serve

import (
	"math/rand"
	"slices"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// TestDirtyFrontierRows pins the destination-compact dirty-row graphs and
// the runner's use of them: the frontiers nest as prefixes, stage by
// stage, and a stage run over its frontier (Self-side inputs gathered to
// the rows, Nbr-side read from the full tensors) yields, bit for bit, the
// rows the same stage yields over the whole graph — for a plan with a
// Self-side input (GAT's ev), one without (GCN), and a three-stage
// program, whose third hop only a stage count (not a [2]) can reach.
func TestDirtyFrontierRows(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.ZipfDegree(rng, 600, 6, 1.0)
	feat := tensor.Randn(rng, 1, g.N, 12)
	build := func(arch string) (*Model, error) {
		return BuildModel(ModelSpec{Arch: arch, Hidden: 16, Classes: 5, Seed: 3}, feat.Cols(), 1)
	}
	for _, tc := range []struct {
		name  string
		build func() (*Model, error)
	}{
		{"gcn", func() (*Model, error) { return build("gcn") }},
		{"gat", func() (*Model, error) { return build("gat") }},
		{"gated3", func() (*Model, error) {
			return newModel(ModelSpec{Arch: "gated3", Seed: 3}, feat.Cols(), 1, gatedProgram(feat.Cols(), 16, 8, 5))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(g, feat)
			if err != nil {
				t.Fatal(err)
			}
			newEnv := func() *ForwardEnv {
				env := &ForwardEnv{G: snap.Graph(), Feat: snap.Features()}
				setNorms(m.prog, env, snap, nil)
				return env
			}
			// The whole-graph reference, one stage at a time.
			full := &run{m: m, env: newEnv(), fullRows: g.N, vals: map[string]*tensor.Tensor{}, h: feat}
			var stageOut []*tensor.Tensor
			for range m.prog.Stages {
				if err := full.step(nil); err != nil {
					t.Fatal(err)
				}
				stageOut = append(stageOut, full.h)
			}

			dg, err := snap.deltaGraph()
			if err != nil {
				t.Fatal(err)
			}
			sets, reach := make([][]int32, len(m.prog.Stages)), []int32{3, 77, 401}
			for l := range sets {
				reach = dg.ExpandOut(reach)
				sets[l] = reach
			}
			hops := dirtyFrontiers(dg, nil, sets)
			for l, f := range hops {
				if err := f.g.Validate(); err != nil || f.g.N != g.N || f.g.In.NumRows() != len(f.rows) {
					t.Fatalf("stage %d's frontier: %v; N=%d with %d in-rows, want a block of %d rows over %d vertices",
						l+1, err, f.g.N, f.g.In.NumRows(), len(f.rows), g.N)
				}
			}
			if !slices.Equal(hops[0].rows, sets[0]) {
				t.Fatalf("stage 1 rows are not the 1-hop set")
			}
			for l := 1; l < len(hops); l++ {
				prev, cur := hops[l-1], hops[l]
				if len(cur.rows) <= len(prev.rows) || !slices.Equal(cur.rows[:len(prev.rows)], prev.rows) ||
					!slices.Equal(cur.g.In.Nbrs[:prev.g.M], prev.g.In.Nbrs) {
					t.Fatalf("stage %d's frontier (%d rows) is not a proper prefix of stage %d's (%d rows)",
						l, len(prev.rows), l+1, len(cur.rows))
				}
				sorted := slices.Clone(cur.rows)
				slices.Sort(sorted)
				if !slices.Equal(sorted, sets[l]) {
					t.Fatalf("stage %d's rows are not its dirty set", l+1)
				}
			}

			// A patch that dirties no feature row recomputes exactly what
			// the parent held: every stage over its frontier must land on
			// the full run's rows.
			patch := &run{m: m, env: newEnv(), fullRows: g.N, vals: full.vals, h: tensor.New(0, feat.Cols())}
			for l := range hops {
				if err := patch.step(&hops[l]); err != nil {
					t.Fatal(err)
				}
				if patch.h.Rows() != len(hops[l].rows) {
					t.Fatalf("stage %d: %d result rows for %d dirty rows", l+1, patch.h.Rows(), len(hops[l].rows))
				}
				if want := tensor.GatherRows(stageOut[l], hops[l].rows); !sameBits(patch.h, want) {
					t.Fatalf("stage %d over its frontier differs from the full stage's rows", l+1)
				}
			}
		})
	}
}
