package main

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestRunPrintsSimulatedHeaders(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-exp", "table2", "-exp", "fig12", "-scale", "0.05", "-gpus", "V100"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs.String())
	}
	for _, header := range []string{"=== Table 2:", "=== Figure 12:", "== Figure 12 on V100"} {
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, header) {
				line = l
			}
		}
		if !strings.Contains(line, "simulated") {
			t.Errorf("header %q missing or not labelled simulated: %q", header, line)
		}
	}
	if strings.Contains(out.String(), "Figure 10") {
		t.Errorf("unrequested experiment ran:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		pointer bool
	}{{"nope", false}, {"kernels", true}, {"oocore", true}} {
		var out, errs bytes.Buffer
		if code := run([]string{"-exp", "table2", "-exp", tc.exp}, &out, &errs); code != 2 {
			t.Fatalf("-exp %s: exit %d, want 2", tc.exp, code)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s: ran something before rejecting:\n%s", tc.exp, out.String())
		}
		msg := errs.String()
		if !strings.Contains(msg, "fig12") || !strings.Contains(msg, "all") {
			t.Errorf("-exp %s: stderr lacks the valid list: %q", tc.exp, msg)
		}
		if got := strings.Contains(msg, "bash benchmark/run.sh --workload"); got != tc.pointer {
			t.Errorf("-exp %s: benchmark pointer present=%v, want %v: %q", tc.exp, got, tc.pointer, msg)
		}
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errs); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
}

func TestRunCSVParses(t *testing.T) {
	for _, tc := range []struct {
		args []string
		cols int
		sim  string
	}{
		{[]string{"-exp", "fig10", "-datasets", "cora", "-models", "gcn", "-epochs", "1", "-warmup", "0"}, 7, "simulated_epoch_ms"},
		{[]string{"-exp", "fig12"}, 5, "simulated_time_ns"},
	} {
		var out, errs bytes.Buffer
		args := append([]string{"-csv", "-scale", "0.05", "-gpus", "V100"}, tc.args...)
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errs.String())
		}
		recs, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatalf("%v: output is not CSV: %v", args, err)
		}
		if len(recs) < 2 || len(recs[0]) != tc.cols {
			t.Fatalf("%v: %d records, header %v", args, len(recs), recs)
		}
		if !strings.Contains(strings.Join(recs[0], ","), tc.sim) {
			t.Errorf("%v: header %v does not say %s", args, recs[0], tc.sim)
		}
	}
}
