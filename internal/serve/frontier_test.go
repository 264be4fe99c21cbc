package serve

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"seastar/internal/device"
	"seastar/internal/exec"
	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// TestDirtyFrontierRows pins the destination-compact dirty-row graph:
// output row i of a layer's aggregation plan run over a frontier equals,
// bit for bit, row rows[i] of the same plan run over the whole graph —
// for a plan with a Self-side input (GAT's ev, gathered to the rows) and
// one without (GCN), on the layer-1 prefix and on the whole graph.
func TestDirtyFrontierRows(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.ZipfDegree(rng, 600, 6, 1.0)
	feat := tensor.Randn(rng, 1, g.N, 12)
	for _, arch := range []string{"gcn", "gat"} {
		t.Run(arch, func(t *testing.T) {
			m, err := BuildModel(ModelSpec{Arch: arch, Hidden: 16, Classes: 5, Seed: 3}, feat.Cols(), 1)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := NewSnapshot(g, feat)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := snap.EnsureEmbeddings(m, &ForwardEnv{Dev: device.New(device.V100)}); err != nil {
				t.Fatal(err)
			}
			aux := snap.embedPeek(m.planKey()).aux
			dg, err := snap.deltaGraph()
			if err != nil {
				t.Fatal(err)
			}
			d1 := dg.ExpandOut([]int32{3, 77, 401})
			hops := dirtyFrontiers(dg, d1, dg.ExpandOut(d1))
			if !slices.Equal(hops[0].rows, d1) || len(hops[1].rows) <= len(d1) {
				t.Fatalf("frontier rows: layer 1 has %d (want d1's %d), layer 2 has %d", len(hops[0].rows), len(d1), len(hops[1].rows))
			}
			for l, hop := range hops {
				sfx := fmt.Sprintf("%d", l+1)
				nbr := map[string]*tensor.Tensor{"hw": aux["hw"+sfx], "norm": snap.Norm()}
				self := map[string]*tensor.Tensor{}
				if arch == "gat" {
					nbr = map[string]*tensor.Tensor{"eu": aux["eu"+sfx], "h": aux["hw"+sfx]}
					self["ev"] = aux["ev"+sfx]
				}
				all := maps.Clone(nbr)
				maps.Copy(all, self)
				full, err := m.plans[l].Infer(&exec.InferEnv{G: snap.Graph(), Dev: device.New(device.V100)}, all, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := runAggPlan(m.plans[l], hop, nbr, self, &DeltaOptions{Profile: device.V100})
				if err != nil {
					t.Fatal(err)
				}
				if got.Rows() != len(hop.rows) {
					t.Fatalf("layer %d: %d result rows for %d dirty rows", l+1, got.Rows(), len(hop.rows))
				}
				want := tensor.GatherRows(full, hop.rows).Data()
				for i, x := range got.Data() {
					if math.Float32bits(x) != math.Float32bits(want[i]) {
						t.Fatalf("layer %d: row %d (vertex %d) differs from the full plan's", l+1, i/got.Cols(), hop.rows[i/got.Cols()])
					}
				}
			}
		})
	}
}
