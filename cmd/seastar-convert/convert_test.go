package main

import (
	"context"
	"path/filepath"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/store"
	"seastar/internal/train"
)

// TestConvertRoundTrip is the tool-level contract (tier-1, quoted in
// the README): the exact sources the CLI builds — a named dataset and
// a -zipf synthesis — survive convert → reopen → verify, and training
// one epoch over the reopened store is bitwise-identical to training
// the same in-memory source.
func TestConvertRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*store.Source, error)
	}{
		{"dataset", func() (*store.Source, error) { return fromDataset("cora", 0.05, 3) }},
		{"zipf", func() (*store.Source, error) { return fromZipf("900,6,1.1", 24, 8, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.build()
			if err != nil {
				t.Fatalf("build source: %v", err)
			}
			path := filepath.Join(t.TempDir(), "g.sgs")
			if err := store.WriteFile(path, src); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			st, err := store.Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer st.Close()
			if err := st.VerifyFingerprint(); err != nil {
				t.Fatalf("VerifyFingerprint: %v", err)
			}
			if err := st.Graph().Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if err := runCheck(path); err != nil {
				t.Fatalf("runCheck: %v", err)
			}

			opts := train.MiniBatchOptions{
				Epochs: 1, BatchSize: 128, FanOut: []int{5, 3},
				LR: 0.01, Seed: 7, DegreeSort: true,
			}
			mem := &datasets.Dataset{
				Name: "mem", G: src.G, Feat: src.Feat,
				Labels: src.Labels, NumClasses: src.NumClasses, Scale: 1,
			}
			ref, err := train.RunMiniBatch(context.Background(), mem, opts)
			if err != nil {
				t.Fatalf("in-memory train: %v", err)
			}
			opts.GraphStore, opts.StorePrefetch = st, true
			got, err := train.RunMiniBatch(context.Background(), train.DatasetFromStore(st, "store"), opts)
			if err != nil {
				t.Fatalf("store train: %v", err)
			}
			if len(got.Losses) == 0 || len(got.Losses) != len(ref.Losses) {
				t.Fatalf("loss curves differ in length: %d vs %d", len(got.Losses), len(ref.Losses))
			}
			for i := range ref.Losses {
				if got.Losses[i] != ref.Losses[i] {
					t.Fatalf("loss[%d]: store %v != in-memory %v (not bitwise-equal)", i, got.Losses[i], ref.Losses[i])
				}
			}
		})
	}
}

// TestConvertRejectsBadSpecs pins the CLI's input validation.
func TestConvertRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "5", "5,3", "a,b,c", "1,3,1.0", "5,0,1.0",
		"2147483648,1,1.0", // vertex ids past int32
		"100000,30000,1.0", // 3·10⁹ edge ids past int32
	} {
		if _, err := fromZipf(spec, 8, 4, 1); err == nil {
			t.Errorf("fromZipf(%q) succeeded, want error", spec)
		}
	}
	if _, err := fromZipf("100,4,1.1", -1, 4, 1); err == nil {
		t.Error("negative feat-dim accepted")
	}
	if _, err := fromZipf("100,4,1.1", 8, 0, 1); err == nil {
		t.Error("zero classes accepted")
	}
	if _, err := fromDataset("no-such-dataset", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}
