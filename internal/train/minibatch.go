package train

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/exec"
	"seastar/internal/nn"
	"seastar/internal/pipeline"
	"seastar/internal/program"
	"seastar/internal/sampling"
	"seastar/internal/store"
)

// DatasetFromStore assembles a Dataset over an open store's mmap-backed
// views: the graph and feature matrix alias the mapping (no copies);
// labels were decoded at Open. Masks are left nil — store-backed
// training is the mini-batch path, which derives its own seed masks.
// The store must stay open while the dataset is in use.
func DatasetFromStore(st *store.Store, name string) *datasets.Dataset {
	return &datasets.Dataset{
		Name: name, G: st.Graph(), Feat: st.Features(),
		Labels: st.Labels(), NumClasses: st.NumClasses(), Scale: 1,
	}
}

// MiniBatchOptions configures sampled mini-batch training (the
// sampling-based workload of §8, driven by the internal/pipeline
// engine).
type MiniBatchOptions struct {
	// Epochs is the total number of epochs (including any restored from
	// a checkpoint).
	Epochs int
	// BatchSize is the seed-vertex count per mini-batch.
	BatchSize int
	// FanOut bounds sampled in-neighbours per layer.
	FanOut []int
	// Prefetch is the pipeline depth; 0 trains serially (the reference
	// path the property tests compare against).
	Prefetch int
	// SampleWorkers is the stage-1 parallelism (min 1).
	SampleWorkers int
	// LR is the Adam learning rate.
	LR float32
	// Seed drives weight init, batch order, and neighbour sampling.
	Seed int64
	// DegreeSort degree-sorts each batch subgraph (§6.3.3).
	DegreeSort bool
	// CheckpointPath, when set, enables save/restore: training resumes
	// from the file if it exists and rewrites it every CheckpointEvery
	// epochs (default: every epoch).
	CheckpointPath  string
	CheckpointEvery int
	// Metrics, when non-nil, receives the pipeline's stage counters
	// (otherwise the engine's own block is used).
	Metrics *pipeline.Metrics
	// Progress, when non-nil, is called after every epoch.
	Progress func(EpochStats)
	// GraphStore, when non-nil, marks ds as backed by the mmap-backed
	// on-disk store (DESIGN.md §16): the trainer registers pipeline
	// hooks that prefetch upcoming batches' CSR rows and feature pages
	// and attribute major page faults per stage. The loss curve is
	// bitwise-identical to the in-memory run either way.
	GraphStore *store.Store
	// StorePrefetch enables the async prefetcher (ignored without
	// GraphStore).
	StorePrefetch bool
	// StorePrefetchWorkers and StorePrefetchBudget size the prefetcher
	// (defaults 1 worker, budget 4 when non-positive).
	StorePrefetchWorkers int
	StorePrefetchBudget  int
}

// DefaultMiniBatchOptions mirrors the full-graph defaults at mini-batch
// scale.
func DefaultMiniBatchOptions() MiniBatchOptions {
	return MiniBatchOptions{
		Epochs: 5, BatchSize: 256, FanOut: []int{8, 4},
		Prefetch: 4, SampleWorkers: 2, LR: 0.01, Seed: 1,
		DegreeSort: true,
	}
}

// EpochStats summarizes one completed epoch.
type EpochStats struct {
	Epoch    int
	Batches  int
	AvgLoss  float64
	SeedAcc  float64
	WallNs   int64
	Restored bool // epoch was skipped because a checkpoint covered it
}

// MiniBatchResult summarizes a mini-batch run.
type MiniBatchResult struct {
	// Losses is the per-batch training loss in batch order, across all
	// epochs run in this process — the bitwise-comparable curve.
	Losses []float32
	// Epochs holds one entry per epoch trained here.
	Epochs []EpochStats
	// SeedAcc is the seed-vertex accuracy of the final epoch.
	SeedAcc float64
	// StartEpoch is the first epoch trained in this process (>0 when a
	// checkpoint was restored).
	StartEpoch int
	// WallNs is the total wall-clock time spent in epochs.
	WallNs int64
	// StoreStats holds the prefetcher's counters when the run was
	// store-backed with prefetch enabled (nil otherwise).
	StoreStats *store.PrefetchStats
	// MajorFaults is the process-wide major page-fault delta across the
	// run (0 when not store-backed or unavailable on this platform).
	MajorFaults int64
}

// RunMiniBatch trains a SAGE-style model on ds with pipelined
// neighbour-sampled mini-batches. With identical options except
// Prefetch/SampleWorkers, the per-batch loss curve is bitwise-identical
// — the pipeline only overlaps stages, it never reorders or reseeds
// them.
func RunMiniBatch(ctx context.Context, ds *datasets.Dataset, opts MiniBatchOptions) (MiniBatchResult, error) {
	res := MiniBatchResult{}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if len(opts.FanOut) == 0 {
		opts.FanOut = []int{8, 4}
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	// No simulated device: mini-batch training is measured by the wall
	// clock, not by the paper's cost model.
	e := nn.NewEngine(nil)

	prog := program.MiniBatchSAGE(ds.Feat.Cols(), ds.NumClasses)
	weights := prog.Draw(e, rand.New(rand.NewSource(opts.Seed)))
	params := prog.Params(weights)
	net, err := program.Lower(prog, weights)
	if err != nil {
		return res, err
	}
	opt := nn.NewAdam(params, opts.LR)

	sampler, err := sampling.NewSampler(ds.G, opts.FanOut, opts.Seed)
	if err != nil {
		return res, err
	}
	cfg := pipeline.Config{
		BatchSize: opts.BatchSize, Prefetch: opts.Prefetch,
		SampleWorkers: opts.SampleWorkers, DegreeSort: opts.DegreeSort,
	}
	var pf *store.Prefetcher
	faults0 := int64(0)
	if st := opts.GraphStore; st != nil {
		cfg.Hooks.Faults = store.MajorFaults
		faults0 = store.MajorFaults()
		if opts.StorePrefetch {
			pf = st.NewPrefetcher(opts.StorePrefetchWorkers, opts.StorePrefetchBudget)
			defer pf.Close()
			cfg.Hooks.PrefetchSeeds = pf.Seeds
			cfg.Hooks.PrefetchBatch = pf.Batch
		}
	}
	eng, err := pipeline.New(sampler, ds.Feat, ds.Labels, cfg)
	if err != nil {
		return res, err
	}
	if opts.Metrics != nil {
		eng.Metrics = opts.Metrics
	}

	// Resume from a checkpoint when one exists.
	start := 0
	if opts.CheckpointPath != "" {
		if _, statErr := os.Stat(opts.CheckpointPath); statErr == nil {
			ck, err := pipeline.LoadCheckpoint(opts.CheckpointPath)
			if err != nil {
				return res, err
			}
			if ck.BaseSeed != opts.Seed {
				return res, fmt.Errorf("train: checkpoint seed %d does not match run seed %d",
					ck.BaseSeed, opts.Seed)
			}
			if err := pipeline.RestoreParams(params, ck.Params); err != nil {
				return res, err
			}
			if err := opt.SetState(ck.Opt); err != nil {
				return res, err
			}
			start = ck.Epoch
			eng.Metrics.Restores.Add(1)
		}
	}
	res.StartEpoch = start

	var epochLoss float64
	var epochBatches, correct, total int
	step := func(b *pipeline.Batch) error {
		rt := exec.NewRuntime(e, b.Sub)
		h := e.InputScoped(b.Feat, "h")
		out, err := net.Forward(rt, h, nil)
		if err != nil {
			return err
		}
		loss := e.CrossEntropyMasked(out, b.Labels, b.Mask)
		e.Backward(loss)
		opt.Step()
		lv := loss.Value.At1(0)
		res.Losses = append(res.Losses, lv)
		epochLoss += float64(lv)
		epochBatches++
		for i := 0; i < b.B.SeedCount; i++ {
			total++
			best, bestJ := float32(-1e30), 0
			for j := 0; j < ds.NumClasses; j++ {
				if out.Value.At(i, j) > best {
					best, bestJ = out.Value.At(i, j), j
				}
			}
			if bestJ == b.Labels[i] {
				correct++
			}
		}
		e.EndIteration()
		return nil
	}

	for epoch := start; epoch < opts.Epochs; epoch++ {
		epochLoss, epochBatches, correct, total = 0, 0, 0, 0
		t0 := time.Now()
		if err := eng.RunEpoch(ctx, epoch, step); err != nil {
			return res, err
		}
		wall := time.Since(t0).Nanoseconds()
		res.WallNs += wall
		st := EpochStats{
			Epoch: epoch, Batches: epochBatches, WallNs: wall,
			SeedAcc: ratio(correct, total),
		}
		if epochBatches > 0 {
			st.AvgLoss = epochLoss / float64(epochBatches)
		}
		res.Epochs = append(res.Epochs, st)
		res.SeedAcc = st.SeedAcc
		if opts.Progress != nil {
			opts.Progress(st)
		}

		if opts.CheckpointPath != "" &&
			((epoch+1-start)%opts.CheckpointEvery == 0 || epoch == opts.Epochs-1) {
			ck := &pipeline.Checkpoint{
				Epoch: epoch + 1, BaseSeed: opts.Seed,
				Params: pipeline.CaptureParams(params),
				Opt:    opt.State(),
			}
			if err := ck.Save(opts.CheckpointPath); err != nil {
				return res, err
			}
			eng.Metrics.Saves.Add(1)
		}
	}
	if pf != nil {
		s := pf.Stats()
		res.StoreStats = &s
	}
	if opts.GraphStore != nil {
		res.MajorFaults = store.MajorFaults() - faults0
	}
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
