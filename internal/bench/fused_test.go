package bench

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// TestFusedBenchSmall runs the closure-compiler A/B benchmark
// end-to-end on a small graph: every pattern must be matched by the
// specializer, pass the bitwise gate, and produce positive timings for
// both execution paths at every worker count.
func TestFusedBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness")
	}
	// Every row is two testing.Benchmark runs, and the backward patterns
	// more than doubled the rows; the test checks the harness, not the
	// timings, so it shortens each run from the default 1 s.
	benchtime := flag.Lookup("test.benchtime").Value
	defer flag.Set("test.benchtime", benchtime.String())
	flag.Set("test.benchtime", "100ms")
	cfg := FusedConfig{Vertices: 3000, AvgDegree: 6, Alpha: 1.0,
		Hidden: 8, Rels: 3, MaxProcsList: []int{1, 2}, Seed: 1}
	rep, err := FusedBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// GAT partitions into two seastar units (edge softmax + weighted
	// aggregate); GCN and R-GCN are one unit each; GAT's backward plan is
	// four units and GCN's one.
	if want := (4 + 4 + 1) * len(cfg.MaxProcsList); len(rep.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), want)
	}
	gatAgg := false
	bwdDots := 0
	for _, r := range rep.Rows {
		if r.Pattern == "gat-bwd" && strings.HasPrefix(r.Spec, "dot[1]") {
			bwdDots++
		}
		if !r.BitwiseEqual {
			t.Fatalf("%s: specialized and interpreted outputs differ", r.Pattern)
		}
		if r.InterpNsPerOp <= 0 || r.SpecNsPerOp <= 0 {
			t.Fatalf("%s @%d: non-positive timing", r.Pattern, r.MaxProcs)
		}
		if r.Spec == "" {
			t.Fatalf("%s: missing specialization name", r.Pattern)
		}
		if r.Pattern == "gat" && r.Unit == 1 && strings.Contains(r.Spec, "gather") {
			gatAgg = true
		}
	}
	if !gatAgg {
		t.Fatal("no GAT aggregate (gather) unit row — the bench_check gate would have nothing to key on")
	}
	if want := 3 * len(cfg.MaxProcsList); bwdDots != want {
		t.Fatalf("%d gat-bwd rows run the dot production, want %d", bwdDots, want)
	}
	var buf bytes.Buffer
	if err := WriteFusedJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"bitwise_equal"`)) {
		t.Fatal("JSON report missing bitwise_equal")
	}
	buf.Reset()
	WriteFusedText(&buf, rep)
	if !bytes.Contains(buf.Bytes(), []byte("speedup")) {
		t.Fatal("text report missing speedup column")
	}
}
