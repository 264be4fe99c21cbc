package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tinyOptions is one short round of a workload at the smoke-test size.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		Workload: workload, Seed: 1, Seconds: 0.15, Trace: trace,
		Size: "tiny", Out: filepath.Join(t.TempDir(), "out"), Rounds: 1,
	}
}

// runContract runs one workload in-process the way the driver does and
// decodes the result line.
func runContract(t *testing.T, o options) contractLine {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(o, &buf)
	if err != nil {
		t.Fatalf("%s: %v", o.Workload, err)
	}
	line, err := parseContract(buf.Bytes())
	if err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.Workload, err, buf.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 {
		t.Errorf("%s: exit %d, correct=%v, %d of %d ops failed\n%s", o.Workload, code, line.Correct, line.Failed, line.Attempted, buf.String())
	}
	if line.Attempted < 1 {
		t.Errorf("%s: attempted %d ops", o.Workload, line.Attempted)
	}
	return line
}

// Every workload, untraced and traced, emits every declared metric once,
// with its unit and a finite value; end-to-end values are never 0, and a
// per-layer metric is non-zero exactly where the registry says the layer
// is exercised.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wd := range workloads {
		for _, trace := range []bool{false, true} {
			line := runContract(t, tinyOptions(t, wd.Name, trace))
			defs := metricsOf(trace)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wd.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wd.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", wd.Name, d.Name, m.Unit, d.Unit)
				case !finite(m.Value):
					t.Errorf("%s: %s = %v", wd.Name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wd.Name, d.Name, m.Value)
				case trace && !d.on(wd.Name) && m.Value != 0:
					t.Errorf("%s: %s = %v on a workload that bypasses the layer", wd.Name, d.Name, m.Value)
				}
			}
			if trace {
				for _, name := range []string{"host.cores", "host.stream_gbps", "host.gemm_peak_gflops", "datasets.gen_s"} {
					if line.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v", wd.Name, name, line.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// The traced run writes a Chrome trace holding the benchmark's own spans,
// each with its id and parent, next to the product's obs events.
func TestTraceFile(t *testing.T) {
	o := tinyOptions(t, wTrainFullGAT, true)
	runContract(t, o)
	data, err := os.ReadFile(filepath.Join(o.Out, "trace-"+wTrainFullGAT+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	ids := map[float64]string{}
	var bench, product int
	for _, e := range tr.TraceEvents {
		if e.PID == 1 {
			bench++
			ids[e.Args["id"].(float64)] = e.Name
		} else {
			product++
		}
	}
	if bench == 0 || product == 0 {
		t.Fatalf("trace has %d bench spans and %d obs events", bench, product)
	}
	parents := map[string]string{}
	for _, e := range tr.TraceEvents {
		if e.PID == 1 {
			parents[e.Name] = ids[e.Args["parent"].(float64)]
		}
	}
	for child, parent := range map[string]string{"nn.backward": "epoch", "setup": "round", "timed": "round"} {
		if parents[child] != parent {
			t.Errorf("span %s has parent %q, want %q", child, parents[child], parent)
		}
	}
}

// The ledger of a full-graph epoch must account for the epoch, and the
// layer split must separate the two full-graph workloads even at the
// smoke-test size.
func TestLedgerCoversEpoch(t *testing.T) {
	line := runContract(t, tinyOptions(t, wTrainFullGCN, true))
	if c := line.Metrics["train.ledger_coverage"].Value; c < 0.95 || c > 1.0001 {
		t.Errorf("ledger covers %.3f of the epoch, want ≥ 0.95", c)
	}
	if line.Metrics["exec.dense_ms"].Value <= 0 || line.Metrics["kernels.edges_per_op"].Value <= 0 {
		t.Errorf("GCN epoch reports no dense time or no edges: %+v", line.Metrics)
	}
}

func TestUnknownWorkloadAndSize(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(options{Workload: "nope", Seconds: 1, Rounds: 1, Size: "tiny"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := run(options{Workload: wServeShard2, Seconds: 1, Rounds: 1, Size: "huge"}, &buf); err == nil {
		t.Error("unknown size accepted")
	}
	if _, err := run(options{Workload: wServeShard2, Seconds: 0, Rounds: 1, Size: "tiny"}, &buf); err == nil {
		t.Error("zero seconds accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("a refused run printed %q", buf.String())
	}
}

// A round whose load generator ran late is repeated; when the retries are
// used up it stands, with a note and in serve.late_rounds, but not as a
// failed op: "correct" is about answers, not about the host's timing.
func TestInvalidRoundIsRetriedThenKept(t *testing.T) {
	runs := 0
	wd := &workloadDef{
		Name: wServeSampled,
		gen:  func(int64, *sizes) (any, error) { return nil, nil },
		round: func(rc *roundCtx, _ any) error {
			runs++
			rc.tally(10, 0)
			for _, m := range endToEnd {
				rc.set(m.Name, 1)
			}
			if runs <= maxRetries+1 {
				return &invalidRound{"generator late"}
			}
			return nil
		},
	}
	res, err := runWorkload(wd, options{Seconds: 1, Rounds: 2, Trace: true, Out: t.TempDir()}, &tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds run: the repeats, the still invalid one kept, one valid one.
	if runs != maxRetries+2 {
		t.Errorf("%d rounds run, want %d", runs, maxRetries+2)
	}
	if res.Attempted != 20 || res.Failed != 0 {
		t.Errorf("%d attempted, %d failed; want the two kept rounds' 20 ops and none failed", res.Attempted, res.Failed)
	}
	if got := res.Values["serve.late_rounds"]; got != 1 {
		t.Errorf("serve.late_rounds = %v, want 1", got)
	}
	if !strings.Contains(strings.Join(res.Notes, "\n"), "kept: invalid round") {
		t.Errorf("no note about the kept round in %q", res.Notes)
	}
}

// An end-to-end value that is missing, not a number or zero must not
// reach the driver as a measurement.
func TestContractCountsUnusableValuesAsFailed(t *testing.T) {
	good := func() *result {
		r := &result{Workload: wTrainFullGCN, Attempted: 5, Values: map[string]float64{}}
		for _, m := range endToEnd {
			r.Values[m.Name] = 2
		}
		return r
	}
	if line := good().contract(false); !line.Correct || line.Attempted != 5 || line.Failed != 0 {
		t.Fatalf("intact result reported as %+v", line)
	}
	for name, spoil := range map[string]func(*result){
		"missing": func(r *result) { delete(r.Values, "op_ms_p50") },
		"NaN":     func(r *result) { r.Values["op_ms_p50"] = math.NaN() },
		"Inf":     func(r *result) { r.Values["setup_s"] = math.Inf(1) },
		"zero":    func(r *result) { r.Values["peak_rss_mb"] = 0 },
	} {
		r := good()
		spoil(r)
		line := r.contract(false)
		if line.Correct || line.Failed != 1 || line.Attempted != 6 {
			t.Errorf("%s end-to-end value: correct=%v, %d of %d failed", name, line.Correct, line.Failed, line.Attempted)
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("%s: result line cannot be encoded: %v", name, err)
		}
	}
	// A per-layer metric of a bypassed layer is 0 and fine; NaN is not.
	r := &result{Workload: wTrainFullGCN, Attempted: 5, Values: map[string]float64{"exec.dense_ms": math.NaN()}}
	if line := r.contract(true); line.Failed != 1 || line.Metrics["part.build_ms"].Value != 0 {
		t.Errorf("traced result with one NaN: %d failed", line.Failed)
	}
}

// BENCHMARK.json is generated from the registry; the two must be equal
// byte for byte, and the registry must respect the driver's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with\n  bash benchmark/run.sh -manifest > BENCHMARK.json")
	}

	var buf bytes.Buffer
	if code, err := run(options{Manifest: true, Seconds: 1, Rounds: 1, Size: "full"}, &buf); err != nil || code != 0 || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-manifest: code %d, err %v, output differs=%v", code, err, !bytes.Equal(buf.Bytes(), want))
	}

	m := buildManifest()
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the driver's limits", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, list := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			use(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("metric %s: bound %v", d.Name, *d.Bound)
			}
			if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound != nil {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		if d.Moves != "" && !seen[d.Moves] {
			t.Errorf("per-layer metric %s names unknown end-to-end metric %q", d.Name, d.Moves)
		}
	}
}

// fakeChild answers runSet without starting processes: every metric of
// every workload reads base, except one pair that reads off.
func fakeChild(calls *int, base, off float64) childRunner {
	return func(o options, workload string, trace bool) (*result, error) {
		*calls++
		r := &result{Workload: workload, Attempted: 10, Values: map[string]float64{}}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			r.Values[d.Name] = base
		}
		if workload == wServeSampled && *calls > len(workloads) {
			r.Values["op_ms_p50"] = off
		}
		return r, nil
	}
}

func TestSelfcheckComparesSetsAgainstBounds(t *testing.T) {
	o := options{Workload: "all", Seed: 1, Seconds: 1, Rounds: 1, Size: "tiny"}

	var buf bytes.Buffer
	calls := 0
	code, err := selfcheck(o, &buf, fakeChild(&calls, 100, 104))
	if err != nil || code != 0 {
		t.Fatalf("sets 4%% apart, inside the bound: code %d, err %v\n%s", code, err, buf.String())
	}
	if calls != 2*len(workloads) {
		t.Errorf("selfcheck ran %d workload runs, want two sets of %d", calls, len(workloads))
	}
	if !strings.Contains(buf.String(), "serve-sampled") || strings.Contains(buf.String(), "EXCEEDS") {
		t.Errorf("unexpected report:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), "%\n"); n != len(workloads)*len(endToEnd) {
		t.Errorf("%d pairs compared, want every end-to-end metric on every workload:\n%s", n, buf.String())
	}

	buf.Reset()
	calls = 0
	code, err = selfcheck(o, &buf, fakeChild(&calls, 100, 140))
	if err != nil || code == 0 {
		t.Fatalf("sets 40%% apart, outside any bound, passed: code %d, err %v", code, err)
	}
	if strings.Count(buf.String(), "EXCEEDS") != 1 {
		t.Errorf("want exactly one pair marked:\n%s", buf.String())
	}
}

func TestRunSetPrintsEveryMetricByName(t *testing.T) {
	var buf bytes.Buffer
	calls := 0
	o := options{Workload: "all", Seed: 1, Seconds: 1, Rounds: 1, Size: "tiny", Trace: true}
	s, err := runSet(o, &buf, fakeChild(&calls, 7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*len(workloads) || len(s) != len(workloads) || s.failed() != 0 {
		t.Errorf("%d child runs, %d results, %d failed", calls, len(s), s.failed())
	}
	out := buf.String()
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(out, d.Name) {
			t.Errorf("metric %s not printed", d.Name)
		}
	}
	if !strings.Contains(out, "host:") {
		t.Error("host fingerprint not printed")
	}
}
