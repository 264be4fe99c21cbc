// Package train runs the paper's training methodology (§7): full-graph
// node classification for a fixed number of epochs, reporting the average
// per-epoch time with the first warm-up epochs discarded, peak device
// memory, and accuracy. Out-of-memory failures are captured as results
// (the paper reports them as "-").
//
// RunMiniBatch is the sampling-based workload of §8: pipelined
// neighbour-sampled training on the wall clock. A batch holds only what
// the model reads: it is sampled as many hops as the model has
// aggregating layers, so every vertex and edge in it reaches a seed row's
// loss.
package train

import (
	"fmt"

	"seastar/internal/models"
	"seastar/internal/nn"
)

// Options configures a training run.
type Options struct {
	// Epochs to run (the paper uses 200; the harness uses fewer since
	// simulated per-epoch time is deterministic).
	Epochs int
	// Warmup epochs excluded from the average (the paper discards 3).
	Warmup int
	// LR is the Adam learning rate.
	LR float32
}

// Result summarizes a run.
type Result struct {
	// EpochNs is the simulated duration of each epoch.
	EpochNs []float64
	// AvgEpochNs averages the post-warmup epochs.
	AvgEpochNs float64
	// PeakBytes is the high-water device memory across the run.
	PeakBytes int64
	// FinalLoss is the last training loss.
	FinalLoss float32
	// TestAcc is the final test accuracy.
	TestAcc float64
	// OOM is set when the run failed with device out-of-memory.
	OOM bool
	// Err holds the failure, if any.
	Err error
}

// String renders the result the way the paper's tables do.
func (r Result) String() string {
	if r.OOM {
		return "OOM"
	}
	if r.Err != nil {
		return "ERR"
	}
	return fmt.Sprintf("%.1f ms", r.AvgEpochNs/1e6)
}

// Run trains m in env for opts.Epochs epochs.
func Run(env *models.Env, m models.Model, opts Options) Result {
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.Warmup >= opts.Epochs {
		opts.Warmup = opts.Epochs - 1
	}
	res := Result{}
	ds := env.DS
	opt := nn.NewAdam(m.Params(), opts.LR)
	err := nn.CatchOOM(func() {
		for epoch := 0; epoch < opts.Epochs; epoch++ {
			start := env.E.Dev.ElapsedNs()
			logits := m.Forward(true)
			loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
			env.E.Backward(loss)
			opt.Step()
			res.FinalLoss = loss.Value.At1(0)
			if epoch == opts.Epochs-1 {
				res.TestAcc = nn.Accuracy(logits.Value, ds.Labels, ds.TestMask)
			}
			env.E.EndIteration()
			res.EpochNs = append(res.EpochNs, env.E.Dev.ElapsedNs()-start)
		}
	})
	res.PeakBytes = env.E.Dev.PeakBytes()
	if err != nil {
		res.Err = err
		res.OOM = true
		return res
	}
	var sum float64
	n := 0
	for i := opts.Warmup; i < len(res.EpochNs); i++ {
		sum += res.EpochNs[i]
		n++
	}
	if n > 0 {
		res.AvgEpochNs = sum / float64(n)
	}
	return res
}
