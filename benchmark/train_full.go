package main

import (
	"fmt"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/models"
	"seastar/internal/nn"
	"seastar/internal/obs"
	"seastar/internal/tensor"
)

// trainFullSpec distinguishes the two full-graph training workloads.
type trainFullSpec struct {
	arch string
	data func(sz *sizes) (dataset string, scale, epochMs float64)
}

var (
	gatSpec = trainFullSpec{"gat", func(sz *sizes) (string, float64, float64) { return sz.GATDataset, sz.GATScale, sz.GATEpochMs }}
	gcnSpec = trainFullSpec{"gcn", func(sz *sizes) (string, float64, float64) { return sz.GCNDataset, sz.GCNScale, sz.GCNEpochMs }}
)

func (s trainFullSpec) newModel(env *models.Env, sys models.System, hidden int) (models.Model, error) {
	if s.arch == "gat" {
		return models.NewGAT(env, sys, hidden)
	}
	return models.NewGCN(env, sys, hidden)
}

// trainFullInputs is the generated dataset plus the reference logits the
// rounds are checked against.
type trainFullInputs struct {
	ds        *datasets.Dataset
	refLogits *tensor.Tensor // fresh-model logits of the independent SysDGL implementation
}

func genTrainFull(spec trainFullSpec) func(int64, *sizes) (any, error) {
	return func(seed int64, sz *sizes) (any, error) {
		name, scale, _ := spec.data(sz)
		ds, err := datasets.Load(name, scale, seed)
		if err != nil {
			return nil, err
		}
		return &trainFullInputs{ds: ds}, nil
	}
}

// refTrainFull computes the fresh-model logits with the DGL-style
// implementation at the same seed. Weights are drawn in the same order on
// every system, so the two models are the same function.
func refTrainFull(spec trainFullSpec) func(*roundCtx, any) error {
	return func(rc *roundCtx, input any) error {
		in := input.(*trainFullInputs)
		env, err := models.NewEnvChecked(device.NewScaled(device.V100, in.ds.Scale), in.ds, rc.Seed)
		if err != nil {
			return err
		}
		m, err := spec.newModel(env, models.SysDGL, rc.Sz.Hidden)
		if err != nil {
			return err
		}
		in.refLogits = m.Forward(false).Value.Clone()
		env.E.EndIteration()
		return nil
	}
}

func roundTrainFull(spec trainFullSpec) func(*roundCtx, any) error {
	return func(rc *roundCtx, input any) error {
		in := input.(*trainFullInputs)
		ds, sz := in.ds, rc.Sz

		// Set-up: degree sort + environment, trace/fuse/compile, warm-up.
		root := rc.Rec.begin(0, "round")
		setupSpan := rc.Rec.begin(root, "setup")
		setupStart := time.Now()
		env, err := models.NewEnvChecked(device.NewScaled(device.V100, ds.Scale), ds, rc.Seed)
		if err != nil {
			return err
		}
		compileStart := time.Now()
		m, err := spec.newModel(env, models.SysSeastar, sz.Hidden)
		if err != nil {
			return err
		}
		compile := time.Since(compileStart)
		rc.Rec.add(setupSpan, "exec.compile", compileStart, compileStart.Add(compile))
		opt := nn.NewAdam(m.Params(), 0.01)

		var ledger [4]time.Duration // forward, loss, backward, optimizer
		var firstLogits *tensor.Tensor
		epoch := func(parent int) (float32, time.Duration) {
			t0 := time.Now()
			logits := m.Forward(true)
			t1 := time.Now()
			loss := env.E.CrossEntropyMasked(logits, ds.Labels, ds.TrainMask)
			t2 := time.Now()
			env.E.Backward(loss)
			t3 := time.Now()
			opt.Step()
			t4 := time.Now()
			if firstLogits == nil {
				firstLogits = logits.Value.Clone()
			}
			lv := loss.Value.At1(0)
			env.E.EndIteration()
			t5 := time.Now()
			for i, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
				ledger[i] += d
			}
			ep := rc.Rec.add(parent, "epoch", t0, t5)
			rc.Rec.add(ep, "models.forward", t0, t1)
			rc.Rec.add(ep, "nn.loss", t1, t2)
			rc.Rec.add(ep, "nn.backward", t2, t3)
			rc.Rec.add(ep, "nn.optimizer", t3, t4)
			return lv, t5.Sub(t0)
		}

		var losses []float32
		for i := 0; i < sz.WarmFull; i++ {
			l, _ := epoch(setupSpan)
			losses = append(losses, l)
		}
		setup := time.Since(setupStart)
		rc.Rec.end(setupSpan)

		// Timed section.
		if rc.Trace {
			obs.Reset()
		}
		ledger = [4]time.Duration{}
		_, _, epochMs := spec.data(sz)
		timed := rc.Rec.begin(root, "timed")
		var walls []time.Duration
		for i := rc.timedEpochs(epochMs); i > 0; i-- {
			l, wall := epoch(timed)
			losses = append(losses, l)
			walls = append(walls, wall)
		}
		rc.Rec.end(timed)
		rss := peakRSSMB()
		ents := obs.Snapshot()
		rc.Rec.end(root)

		var total time.Duration
		for _, w := range walls {
			total += w
		}
		epochs := float64(len(walls))
		rc.set("setup_s", setup.Seconds())
		rc.set("op_ms_p50", median(msAll(walls)))
		rc.set("peak_rss_mb", rss)

		// Correctness, outside the timed section: every epoch is an op.
		first, last := losses[0], losses[len(losses)-1]
		for _, l := range losses {
			rc.ok(finite(float64(l)), "%s: loss %v is not finite", rc.Workload, l)
		}
		rc.ok(last < first, "%s: final loss %v is not below the first %v", rc.Workload, last, first)
		rc.within("fresh-model logits against SysDGL", firstLogits.Data(), in.refLogits.Data(), 1e-4)

		if !rc.Trace {
			return nil
		}
		perEpoch := func(d time.Duration) float64 { return ms(d) / epochs }
		rc.set("models.forward_ms", perEpoch(ledger[0]))
		rc.set("nn.loss_ms", perEpoch(ledger[1]))
		rc.set("nn.backward_ms", perEpoch(ledger[2]))
		rc.set("nn.optimizer_ms", perEpoch(ledger[3]))
		rc.set("train.ledger_coverage", ratio(float64(ledger[0]+ledger[1]+ledger[2]+ledger[3]), float64(total)))
		rc.set("exec.compile_ms", ms(compile))

		_, fwdBusy := obsTotals(ents, "exec", "fwd/", "[seastar]")
		_, bwdBusy := obsTotals(ents, "exec", "bwd/", "[seastar]")
		allFwd, _ := obsTotals(ents, "exec", "fwd/")
		allBwd, _ := obsTotals(ents, "exec", "bwd/")
		_, dense := obsTotals(ents, "exec", "[dense]")
		_, paramgrad := obsTotals(ents, "exec", "[paramgrad]")
		rc.set("kernels.fwd_busy_ms", perEpoch(fwdBusy))
		rc.set("kernels.bwd_busy_ms", perEpoch(bwdBusy))
		// The split the workload was chosen for: above 60 % on GAT, below
		// 20 % on GCN.
		rc.Notes = append(rc.Notes, fmt.Sprintf("fused seastar units take %.0f%% of the epoch", 100*ratio(float64(fwdBusy+bwdBusy), float64(total))))
		rc.set("exec.dense_ms", perEpoch(dense))
		rc.set("exec.paramgrad_ms", perEpoch(paramgrad))
		rc.set("fusion.fwd_units", float64(allFwd)/epochs)
		rc.set("fusion.bwd_units", float64(allBwd)/epochs)

		var edges, specialized, interpreted, hits, misses int64
		for _, e := range ents {
			switch {
			case e.Cat == "kern":
				edges += e.Counters["edges"]
				if e.Counters["specialized"] == 1 {
					specialized++
				} else {
					interpreted++
				}
			case e.Cat == "exec" && e.Name == "pool":
				hits, misses = e.Counters["hits"], e.Counters["misses"]
			}
		}
		rc.set("kernels.edges_per_op", float64(edges)/epochs)
		rc.set("kernels.specialized_units", float64(specialized))
		rc.set("kernels.interpreted_units", float64(interpreted))
		rc.set("exec.pool_hit_ratio", ratio(float64(hits), float64(hits+misses)))

		// Computed, not measured: every seastar unit launch walks its edge
		// list once and moves at least one float32 row of the layer's
		// width per edge. Widths alternate hidden, classes over the units
		// of the two layers; their mean stands for both.
		width := float64(sz.Hidden+ds.NumClasses) / 2
		rc.set("kernels.agg_gbps_computed",
			ratio(float64(edges)/epochs*width*4, (fwdBusy+bwdBusy).Seconds()/epochs)/1e9)

		// The workload's own GEMM shape, and the degree sort, called directly.
		rc.set("tensor.gemm_gflops", gemmGFLOPs(ds.G.N, ds.Feat.Cols(), sz.Hidden, 3))
		t0 := time.Now()
		ds.G.SortByDegree()
		rc.set("graph.degree_sort_ms", ms(time.Since(t0)))
		return nil
	}
}
