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
	// FanOut bounds the in-neighbours sampled per vertex at each hop out
	// from the seeds, one entry per layer of the model. Only the first
	// Depth() entries are drawn (DrawnFanOut): the model has one layer,
	// and a hop past its last layer feeds no row the loss reads.
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
	// on-disk store (DESIGN.md §16): the pipeline attributes major page
	// faults to its sample and gather stages, and the result counts them.
	// The loss curve is bitwise-identical to the in-memory run either way.
	GraphStore *store.Store
}

// DefaultMiniBatchOptions mirrors the full-graph defaults at mini-batch
// scale.
func DefaultMiniBatchOptions() MiniBatchOptions {
	return MiniBatchOptions{
		Epochs: 5, BatchSize: 256, FanOut: []int{8},
		Prefetch: 4, SampleWorkers: 2, LR: 0.01, Seed: 1,
	}
}

// miniBatchModel declares the model RunMiniBatch trains on ds.
func miniBatchModel(ds *datasets.Dataset) *program.Program {
	return program.MiniBatchSAGE(ds.Feat.Cols(), ds.NumClasses)
}

// DrawnFanOut returns the fan-out RunMiniBatch samples with on ds: at most
// the first Depth() entries of fanOut (DefaultMiniBatchOptions' when
// empty). A block is sampled breadth-first, so it holds exactly the
// vertices and edges within the model's reach of the seeds; a later entry
// would draw a hop whose rows carry exactly zero gradient.
func DrawnFanOut(ds *datasets.Dataset, fanOut []int) []int {
	if len(fanOut) == 0 {
		fanOut = DefaultMiniBatchOptions().FanOut
	}
	return fanOut[:min(len(fanOut), miniBatchModel(ds).Depth())]
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
	// MajorFaults is the process-wide major page-fault delta across the
	// run (0 when not store-backed or unavailable on this platform).
	MajorFaults int64
}

// RunMiniBatch trains a SAGE-style model on ds with pipelined
// neighbour-sampled mini-batches. Each batch is sampled only as many hops
// as the model aggregates over (DrawnFanOut), so the batch holds only the
// rows the seed rows' loss reads, and the step runs on its block
// (sampling.Batch.Block): destination-typed rows exist for the seeds
// alone. With identical options except
// Prefetch/SampleWorkers, the per-batch loss curve is bitwise-identical
// — the pipeline only overlaps stages, it never reorders or reseeds
// them.
func RunMiniBatch(ctx context.Context, ds *datasets.Dataset, opts MiniBatchOptions) (MiniBatchResult, error) {
	res := MiniBatchResult{}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	// No simulated device: mini-batch training is measured by the wall
	// clock, not by the paper's cost model.
	e := nn.NewEngine(nil)

	prog := miniBatchModel(ds)
	weights := prog.Draw(e, rand.New(rand.NewSource(opts.Seed)))
	params := prog.Params(weights)
	net, err := program.Lower(prog, weights)
	if err != nil {
		return res, err
	}
	opt := nn.NewAdam(params, opts.LR)

	sampler, err := sampling.NewSampler(ds.G, DrawnFanOut(ds, opts.FanOut), opts.Seed)
	if err != nil {
		return res, err
	}
	cfg := pipeline.Config{
		BatchSize: opts.BatchSize, Prefetch: opts.Prefetch,
		SampleWorkers: opts.SampleWorkers,
	}
	faults0 := int64(0)
	if opts.GraphStore != nil {
		cfg.Faults = store.MajorFaults
		faults0 = store.MajorFaults()
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
		// The one-layer model's destinations are the seeds: the step runs
		// on their block, so its output, loss and backward have a row per
		// seed, not per sampled vertex.
		blk, err := b.B.Block(0)
		if err != nil {
			return err
		}
		h := e.InputScoped(b.Feat, "h")
		out, err := net.Forward(exec.NewRuntime(e, blk), h, nil)
		if err != nil {
			return err
		}
		loss := e.CrossEntropyMasked(out, b.Labels, nil)
		e.Backward(loss)
		opt.Step()
		lv := loss.Value.At1(0)
		res.Losses = append(res.Losses, lv)
		epochLoss += float64(lv)
		epochBatches++
		for i, label := range b.Labels {
			total++
			best, bestJ := float32(-1e30), 0
			for j, x := range out.Value.Row(i) {
				if x > best {
					best, bestJ = x, j
				}
			}
			if bestJ == label {
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
