package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/graph"
	"seastar/internal/pipeline"
	"seastar/internal/sampling"
	"seastar/internal/tensor"
	"seastar/internal/train"
)

const (
	mbAvgDegree = 8
	mbAlpha     = 1.0
	mbFeatDim   = 64
	mbClasses   = 8
)

// trainMBInputs is the generated dataset plus the serial reference loss
// curve of the first epoch.
type trainMBInputs struct {
	ds        *datasets.Dataset
	refLosses []float32
}

func genTrainMB(seed int64, sz *sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.ZipfDegree(rng, sz.MBVertices, mbAvgDegree, mbAlpha)
	ds := &datasets.Dataset{
		Name: "zipf", G: g, Feat: tensor.Randn(rng, 1, g.N, mbFeatDim),
		Labels: make([]int, g.N), NumClasses: mbClasses, Scale: 1,
	}
	for i := range ds.Labels {
		ds.Labels[i] = rng.Intn(mbClasses)
	}
	return &trainMBInputs{ds: ds}, nil
}

func mbOptions(rc *roundCtx) train.MiniBatchOptions {
	o := train.DefaultMiniBatchOptions()
	o.BatchSize, o.FanOut = rc.Sz.MBBatch, rc.Sz.MBFanOut
	o.Prefetch, o.SampleWorkers = 4, 2
	o.Seed = rc.Seed
	return o
}

// refTrainMB trains the first epoch serially (Prefetch 0): the pipelined
// run must reproduce its per-batch losses bit for bit.
func refTrainMB(rc *roundCtx, input any) error {
	in := input.(*trainMBInputs)
	o := mbOptions(rc)
	o.Epochs, o.Prefetch = 1, 0
	res, err := train.RunMiniBatch(context.Background(), in.ds, o)
	in.refLosses = res.Losses
	return err
}

// stageTotals is a reading of the pipeline's own stage counters.
type stageTotals struct {
	sample, gather, compute, stall time.Duration
	batches                        int64
}

func readStages(m *pipeline.Metrics) stageTotals {
	return stageTotals{
		sample:  time.Duration(m.SampleTime.SumNs()),
		gather:  time.Duration(m.GatherTime.SumNs()),
		compute: time.Duration(m.ComputeTime.SumNs()),
		stall:   time.Duration(m.ComputeStall.SumNs()),
		batches: m.Trained.Load(),
	}
}

func roundTrainMB(rc *roundCtx, input any) error {
	in := input.(*trainMBInputs)
	sz := rc.Sz

	// One RunMiniBatch call holds set-up (compile, sampler, pipeline), the
	// warm-up epochs and the timed epochs; the Progress callback marks the
	// boundaries from outside.
	o := mbOptions(rc)
	o.Epochs = sz.WarmMB + rc.timedEpochs(sz.MBEpochMs)
	o.Metrics = pipeline.NewMetrics()
	var walls []time.Duration
	var setup time.Duration
	var atWarm stageTotals
	root := rc.Rec.begin(0, "round")
	start := time.Now()
	last := start
	o.Progress = func(st train.EpochStats) {
		now := time.Now()
		switch {
		case st.Epoch+1 < sz.WarmMB:
		case st.Epoch+1 == sz.WarmMB:
			setup = now.Sub(start)
			rc.Rec.add(root, "setup", start, now)
			atWarm = readStages(o.Metrics)
		default:
			walls = append(walls, now.Sub(last))
			rc.Rec.add(root, "epoch", last, now)
		}
		last = now
	}
	res, err := train.RunMiniBatch(context.Background(), in.ds, o)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	rc.Rec.end(root)
	atEnd := readStages(o.Metrics)

	var total time.Duration
	for _, w := range walls {
		total += w
	}
	epochs := float64(len(walls))
	rc.set("setup_s", setup.Seconds())
	rc.set("op_ms_p50", median(msAll(walls)))
	rc.set("peak_rss_mb", rss)

	// Correctness: every epoch is an op; the first epoch's loss curve must
	// equal the serial run's bit for bit.
	for _, st := range res.Epochs {
		rc.ok(finite(st.AvgLoss), "epoch %d: mean loss %v is not finite", st.Epoch, st.AvgLoss)
	}
	rc.bitwise("first-epoch loss curve against the Prefetch 0 run", res.Losses[:min(len(res.Losses), len(in.refLosses))], in.refLosses)

	if !rc.Trace {
		return nil
	}
	batches := float64(atEnd.batches - atWarm.batches)
	sample, gather := atEnd.sample-atWarm.sample, atEnd.gather-atWarm.gather
	compute, stall := atEnd.compute-atWarm.compute, atEnd.stall-atWarm.stall
	rc.set("sampling.sample_ms_per_batch", ms(sample)/batches)
	rc.set("pipeline.gather_ms_per_batch", ms(gather)/batches)
	rc.set("pipeline.compute_ms_per_batch", ms(compute)/batches)
	rc.set("pipeline.compute_stall_ms_per_op", ms(stall)/epochs)
	rc.set("pipeline.batches_per_op", float64(res.Epochs[0].Batches))
	rc.set("pipeline.overlap_ratio", ratio(float64(sample+gather+compute), float64(total)))
	// The split the workload was chosen for: the data side above 30 %.
	rc.Notes = append(rc.Notes, fmt.Sprintf("sample + gather + stall take %.0f%% of stage time",
		100*ratio(float64(sample+gather+stall), float64(sample+gather+stall+compute))))

	// The two data-side stages called directly, on one thread.
	s, err := sampling.NewSampler(in.ds.G, sz.MBFanOut, rc.Seed)
	if err != nil {
		return err
	}
	plan, err := s.PlanEpoch(0, sz.MBBatch)
	if err != nil {
		return err
	}
	if len(plan) > 16 {
		plan = plan[:16]
	}
	var seeds, gathered int
	var sampleT, gatherT time.Duration
	for i, batchSeeds := range plan {
		t0 := time.Now()
		b, err := s.SampleSeeded(batchSeeds, sampling.DeriveSeed(rc.Seed, 0, i))
		if err != nil {
			return err
		}
		sampleT += time.Since(t0)
		seeds += len(batchSeeds)
		dst := tensor.New(len(b.Vertices), mbFeatDim)
		t0 = time.Now()
		b.GatherFeaturesInto(dst, in.ds.Feat)
		gatherT += time.Since(t0)
		gathered += dst.Size() * 4
	}
	rc.set("sampling.sample_us_per_seed", float64(sampleT.Microseconds())/float64(seeds))
	rc.set("sampling.gather_gbps", ratio(float64(gathered), gatherT.Seconds())/1e9)
	return nil
}
