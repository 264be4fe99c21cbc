// Mini-batch example: pipelined neighbour-sampled training with Seastar
// as the training engine, the way sampling-based systems (Euler,
// AliGraph, §8 of the paper) would embed it. The internal/pipeline
// engine overlaps three stages — parallel neighbour sampling, feature
// gather into pooled tensors, and forward/backward/step — behind
// bounded channels, so sampling for batch k+P runs while batch k
// computes. The compiled vertex-centric program is built once and runs
// on every batch subgraph.
//
// Training is bitwise-reproducible: per-batch sampler seeds derive from
// (epoch, batch index, base seed), so -prefetch only changes wall-clock
// behaviour, never the loss curve. The example demonstrates this by
// re-running the same epochs serially and comparing.
//
//	go run ./examples/minibatch
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"

	"seastar/internal/datasets"
	"seastar/internal/pipeline"
	"seastar/internal/train"
)

func main() {
	degreeSort := flag.Bool("degree-sort", true, "degree-sort each batch subgraph (§6.3.3)")
	prefetch := flag.Int("prefetch", 4, "pipeline depth (0 = serial)")
	workers := flag.Int("sample-workers", 2, "parallel sampling workers")
	flag.Parse()

	// A reddit-like power-law graph at reduced scale.
	ds, err := datasets.Load("reddit", 1.0/256, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base graph: %d vertices, %d edges (avg degree %.0f)\n",
		ds.G.N, ds.G.M, ds.G.AvgDegree())

	metrics := pipeline.NewMetrics()
	opts := train.MiniBatchOptions{
		Epochs: 3, BatchSize: 256, FanOut: []int{8},
		Prefetch: *prefetch, SampleWorkers: *workers,
		LR: 0.01, Seed: 42, DegreeSort: *degreeSort,
		Metrics: metrics,
		Progress: func(st train.EpochStats) {
			fmt.Printf("epoch %d: %d batches, avg loss %.4f, seed acc %.3f\n",
				st.Epoch+1, st.Batches, st.AvgLoss, st.SeedAcc)
		},
	}
	res, err := train.RunMiniBatch(context.Background(), ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final seed-vertex accuracy: %.3f\n\n", res.SeedAcc)

	// The reproducibility contract: a serial re-run produces the exact
	// same per-batch loss curve.
	serialOpts := opts
	serialOpts.Prefetch, serialOpts.Progress, serialOpts.Metrics = 0, nil, nil
	serial, err := train.RunMiniBatch(context.Background(), ds, serialOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial re-run loss curve bitwise identical: %v\n\n",
		reflect.DeepEqual(res.Losses, serial.Losses))

	fmt.Println("pipeline stage metrics:")
	metrics.Write(os.Stdout)
}
