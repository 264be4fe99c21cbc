package main

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// A corrupted answer must be counted as a failed op, not pass unnoticed.
func TestCheckerCountsCorruptedAnswer(t *testing.T) {
	want := []float32{0.5, -1.25, 3, 0}
	var c checker

	if !c.bitwise("intact", append([]float32(nil), want...), want) {
		t.Fatal("identical answer rejected")
	}
	corrupted := append([]float32(nil), want...)
	corrupted[2] = math.Float32frombits(math.Float32bits(corrupted[2]) ^ 1) // one bit of one value
	if c.bitwise("one flipped bit", corrupted, want) {
		t.Error("answer with a flipped bit accepted as bitwise equal")
	}
	if c.bitwise("short answer", want[:3], want) {
		t.Error("truncated answer accepted")
	}
	if c.Attempted != 3 || c.Failed != 2 {
		t.Errorf("checker counted %d attempted, %d failed; want 3 and 2", c.Attempted, c.Failed)
	}
	if len(c.Notes) != 2 {
		t.Errorf("checker kept %d notes for 2 failures", len(c.Notes))
	}

	// The relative check lets rounding through and nothing more.
	c = checker{}
	if !c.within("rounding", []float32{1.00001, -2}, []float32{1, -2.00001}, 1e-4) {
		t.Error("difference of 1e-5 rejected at rtol 1e-4")
	}
	if c.within("wrong", []float32{1.01, -2}, []float32{1, -2}, 1e-4) {
		t.Error("difference of 1e-2 accepted at rtol 1e-4")
	}
	if c.within("nan", []float32{float32(math.NaN())}, []float32{1}, 1e-4) {
		t.Error("NaN accepted")
	}
	if c.Attempted != 3 || c.Failed != 2 {
		t.Errorf("checker counted %d attempted, %d failed; want 3 and 2", c.Attempted, c.Failed)
	}

	c = checker{}
	c.tally(7, 2)
	c.ok(false, "a %s", "refusal")
	if c.Attempted != 10 || c.Failed != 3 {
		t.Errorf("tally + ok counted %d attempted, %d failed; want 10 and 3", c.Attempted, c.Failed)
	}
}

func TestShardAnswerCheckedAgainstTable(t *testing.T) {
	in := &shardInputs{table: tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)}
	good := &serve.Result{Nodes: []int32{2, 0}, Logits: tensor.FromSlice([]float32{5, 6, 1, 2}, 2, 2)}
	if !in.rowsEqual(good) {
		t.Error("correct rows rejected")
	}
	bad := &serve.Result{Nodes: []int32{2, 0}, Logits: tensor.FromSlice([]float32{5, 6, 1, 2.5}, 2, 2)}
	if in.rowsEqual(bad) {
		t.Error("wrong row accepted")
	}
	if in.rowsEqual(nil) {
		t.Error("missing answer accepted")
	}
}

// The bench's own replay of a delta stream must describe the same graph
// the delta path produces, or the final-generation check compares against
// the wrong thing.
func TestMutationRebuildMatchesDeltaPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ZipfDegree(rng, 400, 6, 1.0)
	feat := tensor.Randn(rng, 1, g.N, serveFeatDim)
	deltas := genDeltas(5, g, 6)

	dg, err := graph.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if len(d.AddEdges) != 4 || len(d.RemoveEdges) != 2 || len(d.Features) != 3 {
			t.Fatalf("delta has %d adds, %d removes, %d feature rows", len(d.AddEdges), len(d.RemoveEdges), len(d.Features))
		}
		dg, _, err = dg.Apply(&graph.Delta{AddEdges: d.AddEdges, RemoveEdges: d.RemoveEdges})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := dg.Flatten()
	got, f2, err := rebuild(g, feat, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != want.M {
		t.Fatalf("rebuilt graph has %d edges, delta path %d", got.M, want.M)
	}
	for i := 0; i < got.M; i++ {
		if got.Srcs[i] != want.Srcs[i] || got.Dsts[i] != want.Dsts[i] {
			t.Fatalf("edge %d is %d→%d, delta path has %d→%d", i, got.Srcs[i], got.Dsts[i], want.Srcs[i], want.Dsts[i])
		}
	}
	last := deltas[len(deltas)-1].Features[2]
	if firstDiff(f2.Row(int(last.Node)), last.Row) >= 0 {
		t.Error("last feature update missing from the rebuilt features")
	}
	if firstDiff(feat.Row(int(last.Node)), last.Row) < 0 {
		t.Error("rebuild overwrote the original features")
	}
}
