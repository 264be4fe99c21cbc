package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seastar/internal/exec"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenModels are the models covered by the EXPLAIN / DOT golden files.
// appnp is left out deliberately: it exercises the same ops as gcn.
var goldenModels = []string{"gcn", "gat", "rgcn"}

func compileModel(t *testing.T, model string) *exec.CompiledUDF {
	t.Helper()
	dag, err := buildModel(model, modelParams{in: 16, hidden: 16, relations: 4})
	if err != nil {
		t.Fatalf("buildModel(%s): %v", model, err)
	}
	c, err := exec.Compile(dag)
	if err != nil {
		t.Fatalf("Compile(%s): %v", model, err)
	}
	return c
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run %s -update): %v", path, t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExplainGolden pins the EXPLAIN text output — GIR listings plus the
// fused execution-unit plans — for each built-in model. A diff here means
// the compiler pipeline (trace, autodiff, fusion, materialization) changed
// what it produces, which should be a deliberate decision.
func TestExplainGolden(t *testing.T) {
	for _, model := range goldenModels {
		t.Run(model, func(t *testing.T) {
			c := compileModel(t, model)
			var buf bytes.Buffer
			writeExplain(&buf, model, c)
			checkGolden(t, model+"_explain.txt", buf.Bytes())
		})
	}
}

// TestDOTGolden pins the Graphviz rendering of both passes for each model.
func TestDOTGolden(t *testing.T) {
	for _, model := range goldenModels {
		for _, pass := range []string{"fwd", "bwd"} {
			t.Run(model+"/"+pass, func(t *testing.T) {
				c := compileModel(t, model)
				var buf bytes.Buffer
				if err := writeDOT(&buf, model, pass, c); err != nil {
					t.Fatalf("writeDOT: %v", err)
				}
				checkGolden(t, fmt.Sprintf("%s_%s.dot", model, pass), buf.Bytes())
			})
		}
	}
}

// TestDOTWellFormed sanity-checks structural invariants of the DOT output
// that a golden diff would not explain well: balanced braces, one cluster
// per execution unit, and every node referenced by an edge also declared.
func TestDOTWellFormed(t *testing.T) {
	c := compileModel(t, "gat")
	var buf bytes.Buffer
	if err := writeDOT(&buf, "gat", "fwd", c); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Count(s, "{") != strings.Count(s, "}") {
		t.Errorf("unbalanced braces in DOT output")
	}
	if got, want := strings.Count(s, "subgraph cluster_u"), len(c.Fwd.Plan.Units); got != want {
		t.Errorf("got %d clusters, want %d (one per execution unit)", got, want)
	}
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if !strings.Contains(line, "->") {
			continue
		}
		var from, to int
		if _, err := fmt.Sscanf(line, "n%d -> n%d", &from, &to); err != nil {
			t.Errorf("unparseable edge line %q: %v", line, err)
			continue
		}
		for _, id := range []int{from, to} {
			if !strings.Contains(s, fmt.Sprintf("n%d [", id)) {
				t.Errorf("edge references undeclared node n%d", id)
			}
		}
	}
}

// TestDOTBadPass covers the error paths.
func TestDOTBadPass(t *testing.T) {
	c := compileModel(t, "gcn")
	if err := writeDOT(&bytes.Buffer{}, "gcn", "sideways", c); err == nil {
		t.Error("expected error for unknown pass")
	}
}

func TestBuildModelUnknown(t *testing.T) {
	if _, err := buildModel("transformer", modelParams{}); err == nil {
		t.Error("expected error for unknown model")
	}
}

// TestAnalyzeAttribution gates the PR's acceptance criterion: EXPLAIN
// ANALYZE on the GAT model must attribute at least 95% of the measured
// wall time to named rows — the execution units plus the two harness
// rows (the SumAll loss and the autograd sweep's own time) — and the
// per-row sum must agree with the end-to-end timing within 10%. The graph
// is smaller than the CLI default to keep the test quick, but large
// enough that kernel time dominates fixed overhead the way it does at the
// default scale.
func TestAnalyzeAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full engine for several iterations")
	}
	rep, err := runAnalyze(analyzeOptions{
		Model:  "gat",
		Params: modelParams{in: 16, hidden: 16, relations: 4},
		N:      20000, Deg: 8, Iters: 3, Seed: 1, GPU: "V100",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage < 0.95 {
		t.Errorf("attribution coverage %.1f%% < 95%%", rep.Coverage*100)
	}
	// "Sums within 10% of end-to-end timing": UnitsNs ∈ [0.9, 1.1]·WallNs.
	lo, hi := float64(rep.WallNs)*0.9, float64(rep.WallNs)*1.1
	if float64(rep.UnitsNs) < lo || float64(rep.UnitsNs) > hi {
		t.Errorf("unit sum %d ns outside ±10%% of wall %d ns", rep.UnitsNs, rep.WallNs)
	}
	if len(rep.Units) == 0 {
		t.Fatal("no units attributed")
	}
	seenBwd := false
	for _, u := range rep.Units {
		if u.Count != int64(rep.Iters) {
			t.Errorf("%s ran %d times, want %d", u.Label, u.Count, rep.Iters)
		}
		if u.Pass == "bwd" {
			seenBwd = true
		}
	}
	if !seenBwd {
		t.Error("no backward units attributed — backward pass did not run")
	}
	if tot, ok := rep.CompileNs["total"]; !ok || tot <= 0 {
		t.Error("missing compile-phase attribution")
	}
}

// TestAnalyzeRGCNCounters checks that kernel-layer counters (rows, edges)
// flow through attribution and match the graph that was actually built.
func TestAnalyzeRGCNCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full engine")
	}
	rep, err := runAnalyze(analyzeOptions{
		Model:  "rgcn",
		Params: modelParams{in: 8, hidden: 8, relations: 3},
		N:      2000, Deg: 4, Iters: 2, Seed: 7, GPU: "V100",
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range rep.Units {
		if u.Counters == nil {
			continue
		}
		found = true
		if rows := u.Counters["rows"]; rows != int64(rep.N) {
			t.Errorf("%s rows=%d, want %d", u.Label, rows, rep.N)
		}
		if edges := u.Counters["edges"]; edges != int64(rep.M) {
			t.Errorf("%s edges=%d, want %d", u.Label, edges, rep.M)
		}
	}
	if !found {
		t.Error("no unit carried kernel counters")
	}
}
