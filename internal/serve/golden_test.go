package serve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

func bitsFNV(ts ...*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range ts {
		for _, x := range t.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestModelGolden pins the absolute function each served architecture
// computes: the bits of every weight tensor in draw order, and of the
// logits of one full forward, against constants recorded at commit
// 4b974ab (the last tree with one hand-written forward per architecture).
// Every other gate compares two paths of the same tree, so a swapped draw
// order or a misplaced activation would pass them all. The graph is small
// enough that every dense product takes the serial reference GEMM, so the
// constants hold with and without SEASTAR_NO_SIMD=1.
func TestModelGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ZipfDegree(rng, 48, 4, 1.0)
	feat := tensor.Randn(rng, 1, g.N, 6)
	srcs, dsts := graph.ZipfDegreeEdges(rng, 48, 4, 1.0)
	typed, err := graph.FromTypedEdges(48, srcs, dsts, graph.RandomTypes(rng, len(srcs), 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := typed.SortEdgesByType(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arch           string
		weights        []string // draw order
		wantW, wantOut uint64
		g              *graph.Graph
		numRel         int
	}{
		{arch: "gcn", weights: []string{"W1", "b1", "W2", "b2"}, g: g, numRel: 1,
			wantW: goldenGCNWeights, wantOut: goldenGCNLogits},
		{arch: "gat", weights: []string{"W1", "aU1", "aV1", "W2", "aU2", "aV2"}, g: g, numRel: 1,
			wantW: goldenGATWeights, wantOut: goldenGATLogits},
		{arch: "appnp", weights: []string{"W1", "W2"}, g: g, numRel: 1,
			wantW: goldenAPPNPWeights, wantOut: goldenAPPNPLogits},
		{arch: "rgcn", weights: []string{"Ws1", "Wself1", "Ws2", "Wself2"}, g: typed, numRel: 3,
			wantW: goldenRGCNWeights, wantOut: goldenRGCNLogits},
	} {
		t.Run(tc.arch, func(t *testing.T) {
			spec := ModelSpec{Arch: tc.arch, Hidden: 8, Classes: 3, Alpha: 0.1, K: 3, Seed: 11}
			m, err := BuildModel(spec, feat.Cols(), tc.numRel)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.weights) != len(tc.weights) {
				t.Fatalf("%d weights, want %d", len(m.weights), len(tc.weights))
			}
			var ws []*tensor.Tensor
			for _, name := range tc.weights {
				w, ok := m.weights[name]
				if !ok {
					t.Fatalf("no weight %q", name)
				}
				ws = append(ws, w)
			}
			if got := bitsFNV(ws...); got != tc.wantW {
				t.Errorf("weights hash %#x, want %#x", got, tc.wantW)
			}
			if runtime.GOARCH != "amd64" {
				t.Skip("logits constants were recorded on amd64")
			}
			snap, err := NewSnapshot(tc.g, feat)
			if err != nil {
				t.Fatal(err)
			}
			env := &ForwardEnv{G: snap.Graph(), Feat: snap.Features()}
			NormsFor(tc.arch, snap, env.G, env)
			logits, err := m.Forward(env)
			if err != nil {
				t.Fatal(err)
			}
			if logits.Rows() != g.N || logits.Cols() != spec.Classes {
				t.Fatalf("logits [%d,%d], want [%d,%d]", logits.Rows(), logits.Cols(), g.N, spec.Classes)
			}
			if got := bitsFNV(logits); got != tc.wantOut {
				t.Errorf("logits hash %#x, want %#x", got, tc.wantOut)
			}
		})
	}
}

// Recorded at commit 4b974ab on amd64, identical under SEASTAR_NO_SIMD=1.
const (
	goldenGCNWeights   uint64 = 0xc48282f853f936c3
	goldenGCNLogits    uint64 = 0x9746e51340ebb71
	goldenGATWeights   uint64 = 0xce2052508d7c1ccb
	goldenGATLogits    uint64 = 0x559a6e00413d4eb8
	goldenAPPNPWeights uint64 = 0x4619869c1ec958b3
	goldenAPPNPLogits  uint64 = 0xe491d5af2b38244c
	goldenRGCNWeights  uint64 = 0xb8d9d35a8ee83dd6
	goldenRGCNLogits   uint64 = 0x81a2063ee21cfad
)
