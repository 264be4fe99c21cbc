//go:build linux

package store_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/store"
	"seastar/internal/tensor"
	"seastar/internal/train"
)

// BenchmarkStoreEpochCold times store-backed RunMiniBatch epochs shaped
// like the train-mb-sage workload (a 50 000-vertex Zipf graph of average
// in-degree 8, width 64, 8 classes, batch 512, fan-out 10,5, Prefetch 4,
// 2 sample workers; a 23.6 MB store) with the page cache cold: the store's
// pages are evicted before every epoch, so each one faults its CSR rows
// and feature pages back in from the file. The first epoch is not timed.
// It reports ms/epoch, majflt/epoch, and resident_pages, the most pages
// an eviction left resident (0: every epoch started cold).
func BenchmarkStoreEpochCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ZipfDegree(rng, 50000, 8, 1.0)
	src := &store.Source{G: g, Feat: tensor.Randn(rng, 1, g.N, 64), Labels: make([]int, g.N), NumClasses: 8}
	for i := range src.Labels {
		src.Labels[i] = rng.Intn(8)
	}
	path := filepath.Join(b.TempDir(), "g.sgs")
	if err := store.WriteFile(path, src); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	var resident int
	var faults0 int64
	opts := train.MiniBatchOptions{
		Epochs: 1 + b.N, BatchSize: 512, FanOut: []int{10, 5},
		Prefetch: 4, SampleWorkers: 2, LR: 0.01, Seed: 1, GraphStore: st,
		Progress: func(es train.EpochStats) {
			b.StopTimer()
			r, err := store.EvictPages(st)
			if err != nil {
				b.Fatal(err)
			}
			resident = max(resident, r)
			if es.Epoch == 0 {
				b.ResetTimer()
				faults0 = store.MajorFaults()
			}
			b.StartTimer()
		},
	}
	if _, err := train.RunMiniBatch(context.Background(), train.DatasetFromStore(st, "zipf"), opts); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/epoch")
	b.ReportMetric(float64(store.MajorFaults()-faults0)/float64(b.N), "majflt/epoch")
	b.ReportMetric(float64(resident), "resident_pages")
}
