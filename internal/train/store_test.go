package train

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"seastar/internal/datasets"
	"seastar/internal/graph"
	"seastar/internal/store"
	"seastar/internal/tensor"
)

// storeDataset writes a random Zipf graph to a store file and opens it,
// returning the equivalent in-memory dataset and the store.
func storeDataset(t *testing.T, seed int64, n, avg, dim, classes int) (*datasets.Dataset, *store.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ZipfDegree(rng, n, avg, 1.2)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	src := &store.Source{
		G: g, Feat: tensor.Randn(rng, 1, n, dim),
		Labels: labels, NumClasses: classes,
	}
	path := filepath.Join(t.TempDir(), "g.sgs")
	if err := store.WriteFile(path, src); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	mem := &datasets.Dataset{
		Name: "mem", G: src.G, Feat: src.Feat,
		Labels: src.Labels, NumClasses: src.NumClasses, Scale: 1,
	}
	return mem, st
}

// TestStoreBitwiseEquivalence is the tentpole property: mini-batch
// training over the mmap-backed store — prefetcher on, fault hooks
// wired — produces a per-batch loss curve bitwise-identical to the same
// run over the in-memory arrays, both serial and pipelined.
func TestStoreBitwiseEquivalence(t *testing.T) {
	mem, st := storeDataset(t, 17, 1200, 5, 12, 6)

	base := MiniBatchOptions{
		Epochs: 2, BatchSize: 128, FanOut: []int{6, 3},
		LR: 0.01, Seed: 5, DegreeSort: true,
	}
	run := func(name string, ds *datasets.Dataset, opts MiniBatchOptions) []float32 {
		t.Helper()
		res, err := RunMiniBatch(context.Background(), ds, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Losses) == 0 {
			t.Fatalf("%s: no losses", name)
		}
		// The trainer must actually drive the prefetcher it was asked for.
		if s := res.StoreStats; opts.StorePrefetch != (s != nil) {
			t.Fatalf("%s: StorePrefetch=%v but StoreStats=%v", name, opts.StorePrefetch, s)
		} else if s != nil && (s.Batches == 0 || s.Pages == 0) {
			t.Fatalf("%s: prefetcher idle: %+v", name, *s)
		}
		return res.Losses
	}

	ref := run("in-memory serial", mem, base)

	variants := []struct {
		name string
		opts func() MiniBatchOptions
	}{
		{"store serial", func() MiniBatchOptions {
			o := base
			o.GraphStore = st
			return o
		}},
		{"store serial prefetch", func() MiniBatchOptions {
			o := base
			o.GraphStore, o.StorePrefetch = st, true
			return o
		}},
		{"store pipelined prefetch", func() MiniBatchOptions {
			o := base
			o.GraphStore, o.StorePrefetch = st, true
			o.Prefetch, o.SampleWorkers = 4, 2
			o.StorePrefetchWorkers, o.StorePrefetchBudget = 2, 8
			return o
		}},
		{"in-memory pipelined", func() MiniBatchOptions {
			o := base
			o.Prefetch, o.SampleWorkers = 4, 2
			return o
		}},
	}
	for _, v := range variants {
		ds := mem
		opts := v.opts()
		if opts.GraphStore != nil {
			ds = DatasetFromStore(st, "store")
		}
		got := run(v.name, ds, opts)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d losses vs %d", v.name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: loss[%d] = %v, reference %v (not bitwise-equal)", v.name, i, got[i], ref[i])
			}
		}
	}
}
