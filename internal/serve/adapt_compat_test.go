package serve_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"seastar/internal/adapt"
	"seastar/internal/sched"
	"seastar/internal/serve"
)

// TestAdaptAdoptsPlanFileFromBeforePR17 starts an engine on a plan file
// in the format the store wrote before the kernel and pipeline decision
// kinds were removed: the tuning also carries "units", "prefetch" and
// "sample_workers", the plan a "profile". The engine must start warm on
// the file's max_batch decision and serve correct answers.
func TestAdaptAdoptsPlanFileFromBeforePR17(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	key := adapt.Key{
		Model: gcnSpec(4).Key(), GraphFP: snap.Fingerprint(), InDim: snap.FeatDim(),
		Procs: sched.MaxProcs, Host: adapt.HostID(),
	}
	file := map[string]any{
		"version": 1,
		"plans": map[string]any{key.String(): map[string]any{
			"version": 1, "key": key, "gen": 3,
			"tuning": map[string]any{
				"units":     map[string]any{"fwd/unit 0 [seastar]": map[string]any{"tile_width": 8, "serial": -1}},
				"max_batch": 16, "prefetch": -1, "sample_workers": 2,
			},
			"base_ns": 1000, "best_ns": 800,
			"profile": map[string]any{"fwd/unit 0 [seastar]": map[string]any{"unit": "fwd/unit 0 [seastar]", "runs": 10}},
		}},
	}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	planPath := filepath.Join(t.TempDir(), "plans.json")
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(adaptCfg(planPath), snap)
	if err != nil {
		t.Fatalf("a plan file from before PR 17 must not fail engine start: %v", err)
	}
	defer e.Close()
	if !e.AdaptWarm() || e.AdaptDiag() != nil {
		t.Fatalf("warm=%v diag=%v, want the persisted plan adopted", e.AdaptWarm(), e.AdaptDiag())
	}
	if got := e.MaxBatch(); got != 16 {
		t.Fatalf("batch cap %d, want the file's max_batch 16", got)
	}
	soak(t, e, groundTruth(t, gcnSpec(4), snap), 8, 2)
}
