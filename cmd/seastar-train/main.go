// Command seastar-train trains one GNN on one dataset and reports loss,
// accuracy, and — on the simulated GPU the paper's figures use — per-epoch
// time and peak device memory:
//
//	seastar-train -model gcn -dataset cora -system seastar -epochs 20
//	seastar-train -model rgcn -dataset aifb -system dgl-bmm -gpu 1080Ti
//
// With -minibatch it switches to pipelined neighbour-sampled training
// (internal/pipeline): sampling for upcoming batches overlaps compute
// for the current one, with bitwise-reproducible results for a fixed
// -seed regardless of -prefetch/-sample-workers. Its epochs report wall
// clock time; nothing is simulated:
//
//	seastar-train -minibatch -dataset cora -batch-size 256 -prefetch 4 \
//	    -epochs 5 -checkpoint ck.gob
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"seastar/internal/bench"
	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/models"
	"seastar/internal/nn"
	"seastar/internal/pipeline"
	"seastar/internal/store"
	"seastar/internal/train"
)

func main() {
	model := flag.String("model", "gcn", "gcn|gat|appnp|rgcn")
	dataset := flag.String("dataset", "cora", "dataset name (see -list)")
	system := flag.String("system", "seastar", "seastar|dgl|pyg|dgl-bmm|pyg-bmm")
	gpu := flag.String("gpu", "V100", "simulated GPU of full-graph runs (mini-batch runs simulate none)")
	hidden := flag.Int("hidden", 16, "hidden size")
	epochs := flag.Int("epochs", 10, "training epochs")
	lr := flag.Float64("lr", 0.01, "Adam learning rate")
	scale := flag.Float64("scale", 0, "dataset instantiation scale (0 = default)")
	seed := flag.Int64("seed", 1, "seed")
	degreeSort := flag.Bool("degree-sort", true, "degree-sort the graph before full-graph training (§6.3.3); disable for ablations (sampled mini-batches are always built sorted)")
	list := flag.Bool("list", false, "list datasets and exit")
	traceFile := flag.String("trace", "", "write a Chrome trace of simulated kernels to this file")
	minibatch := flag.Bool("minibatch", false, "train with pipelined neighbour-sampled mini-batches instead of full graph")
	batchSize := flag.Int("batch-size", 256, "minibatch: seed vertices per batch")
	prefetch := flag.Int("prefetch", 4, "minibatch: pipeline depth (0 = serial)")
	sampleWorkers := flag.Int("sample-workers", 2, "minibatch: parallel sampling workers")
	fanout := flag.String("fanout", "8", "minibatch: comma-separated neighbour fan-out per hop from the seeds, one per model layer; entries past the model's depth (one layer) are not drawn")
	checkpoint := flag.String("checkpoint", "", "minibatch: checkpoint file (resumes if present, saved every epoch)")
	metricsOut := flag.String("metrics-out", "", "minibatch: write Prometheus-style pipeline metrics to this file at exit")
	graphStore := flag.String("graph-store", "", "train from an mmap-backed on-disk store written by seastar-convert (implies -minibatch; -dataset/-scale are ignored)")
	flag.Parse()

	if *list {
		bench.WriteTable2(os.Stdout)
		return
	}
	if *graphStore != "" {
		st, err := store.Open(*graphStore)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		ds := train.DatasetFromStore(st, *graphStore)
		fmt.Printf("graph store %s: N=%d, M=%d, d=%d, %d classes, %.1f MB on disk (fingerprint %#x)\n",
			*graphStore, st.N(), st.M(), st.FeatDim(), st.NumClasses(),
			float64(st.Bytes())/(1<<20), st.Fingerprint())
		runMiniBatch(ds, miniFlags{
			epochs: *epochs, batchSize: *batchSize, prefetch: *prefetch,
			sampleWorkers: *sampleWorkers, fanout: *fanout,
			checkpoint: *checkpoint, metricsOut: *metricsOut,
			lr: float32(*lr), seed: *seed, store: st,
		})
		return
	}
	s := *scale
	if s == 0 {
		s = datasets.DefaultScale(*dataset)
	}
	ds, err := datasets.Load(*dataset, s, *seed)
	if err != nil {
		fatal(err)
	}
	if *minibatch {
		runMiniBatch(ds, miniFlags{
			epochs: *epochs, batchSize: *batchSize, prefetch: *prefetch,
			sampleWorkers: *sampleWorkers, fanout: *fanout,
			checkpoint: *checkpoint, metricsOut: *metricsOut,
			lr: float32(*lr), seed: *seed,
		})
		return
	}
	prof, ok := device.ProfileByName(*gpu)
	if !ok {
		fatal(fmt.Errorf("unknown GPU %q (have %v)", *gpu, []string{"V100", "2080Ti", "1080Ti"}))
	}
	dev := device.NewScaled(prof, s)
	env, err := models.NewEnvWith(dev, ds, *seed, models.EnvOptions{DegreeSort: *degreeSort})
	if err != nil {
		fatal(err)
	}

	var m models.Model
	sys := models.System(*system)
	switch *model {
	case "gcn":
		m, err = models.NewGCN(env, sys, *hidden)
	case "gat":
		m, err = models.NewGAT(env, sys, *hidden)
	case "appnp":
		m, err = models.NewAPPNP(env, sys, *hidden, 10, 0.1)
	case "rgcn":
		m, err = models.NewRGCN(env, sys, *hidden)
	default:
		err = fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("training %s on %s (N=%d, M=%d, scale=%.4g) with %s on simulated %s\n",
		m.Name(), ds.Name, ds.G.N, ds.G.M, ds.Scale, sys, prof.Name)

	if *traceFile != "" {
		dev.EnableTrace()
	}

	opt := nn.NewAdam(m.Params(), float32(*lr))
	trainErr := nn.CatchOOM(func() {
		for epoch := 1; epoch <= *epochs; epoch++ {
			start := dev.ElapsedNs()
			logits := m.Forward(true)
			loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
			env.E.Backward(loss)
			opt.Step()
			trainAcc := nn.Accuracy(logits.Value, ds.Labels, ds.TrainMask)
			testAcc := nn.Accuracy(logits.Value, ds.Labels, ds.TestMask)
			env.E.EndIteration()
			fmt.Printf("epoch %3d  loss %.4f  train-acc %.3f  test-acc %.3f  sim %.2f ms\n",
				epoch, loss.Value.At1(0), trainAcc, testAcc, (dev.ElapsedNs()-start)/1e6)
		}
	})
	if trainErr != nil {
		fmt.Printf("training aborted: %v\n", trainErr)
		os.Exit(2)
	}
	fmt.Printf("peak device memory: %.1f MB (extrapolated to full scale)\n",
		float64(dev.PeakBytes())/(1<<20))

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := dev.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Println("top kernels by simulated time:")
		for i, s := range dev.SummarizeTrace() {
			if i == 8 {
				break
			}
			fmt.Printf("  %-28s ×%-5d %.3f ms\n", s.Name, s.Count, s.TotalNs/1e6)
		}
		fmt.Printf("chrome trace written to %s\n", *traceFile)
	}
}

type miniFlags struct {
	epochs, batchSize, prefetch, sampleWorkers int
	fanout, checkpoint, metricsOut             string
	lr                                         float32
	seed                                       int64
	store                                      *store.Store
}

// runMiniBatch drives train.RunMiniBatch with ^C-aware cancellation:
// an interrupt cancels the pipeline, which drains all stages, and the
// latest completed epoch's checkpoint (if -checkpoint) remains usable.
func runMiniBatch(ds *datasets.Dataset, mf miniFlags) {
	fan, err := parseFanOut(mf.fanout)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	metrics := pipeline.NewMetrics()
	opts := train.MiniBatchOptions{
		Epochs: mf.epochs, BatchSize: mf.batchSize, FanOut: fan,
		Prefetch: mf.prefetch, SampleWorkers: mf.sampleWorkers,
		LR: mf.lr, Seed: mf.seed,
		CheckpointPath: mf.checkpoint, Metrics: metrics,
		GraphStore: mf.store,
		Progress: func(st train.EpochStats) {
			fmt.Printf("epoch %3d  batches %3d  loss %.4f  seed-acc %.3f  wall %.1f ms\n",
				st.Epoch+1, st.Batches, st.AvgLoss, st.SeedAcc, float64(st.WallNs)/1e6)
		},
	}
	fmt.Printf("mini-batch training on %s (N=%d, M=%d): batch %d, fan-out %v, prefetch %d, %d sample workers\n",
		ds.Name, ds.G.N, ds.G.M, mf.batchSize, train.DrawnFanOut(ds, fan), mf.prefetch, mf.sampleWorkers)

	res, err := train.RunMiniBatch(ctx, ds, opts)
	if mf.metricsOut != "" {
		if f, ferr := os.Create(mf.metricsOut); ferr == nil {
			metrics.Write(f)
			f.Close()
		} else {
			fmt.Fprintln(os.Stderr, "seastar-train:", ferr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if res.StartEpoch > 0 {
		fmt.Printf("(resumed from checkpoint at epoch %d)\n", res.StartEpoch)
	}
	fmt.Printf("final seed-vertex accuracy %.3f\n", res.SeedAcc)
	if mf.store != nil {
		fmt.Printf("major faults: %d\n", res.MajorFaults)
	}
}

func parseFanOut(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -fanout element %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fanout is empty")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seastar-train:", err)
	os.Exit(1)
}
