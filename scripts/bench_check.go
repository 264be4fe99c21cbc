// Command bench_check is the CI bench-regression gate: it re-runs the
// host-independent benchmark models and fails if they regress against
// the committed BENCH_kernels.json / BENCH_pipeline.json baselines.
//
// The kernels gate is measured, not modeled: it re-times the fused GAT
// kernel in-process at 1 and P scheduler workers and requires the
// parallel wall time to actually beat serial (engaged only when the
// host has the cores to back P workers — on smaller runners it reports
// and skips). The pipeline and gemm gates compare *modeled* numbers
// (the pipeline overlap model and the gemm arithmetic-intensity model),
// which are deterministic up to relative stage costs, so they are
// meaningful on CI hosts of any core count.
//
// The fused gate re-times the closure-compiled edge loops against the
// interpreter in the same process: both sides of the ratio move with
// host speed, so the specialization speedup itself is comparable
// against the committed BENCH_fused.json baseline. Bitwise equality of
// the two paths is a hard gate with no tolerance.
//
// The adaptive gate reads the committed BENCH_serve.json: the serving
// engine's measured micro-batch re-planner must have beaten the static
// cap by the floor, with every answer bitwise equal to the serial
// forward. It is committed-only evidence (the experiment saturates a
// 100k-vertex graph for over a minute), refreshed by the nightly bench
// job rather than per-push CI.
//
// The delta gate reads the committed BENCH_delta.json the same way: the
// incremental k-hop recompute must have beaten a full forward by the
// floor at under 1% touched vertices, with every child bitwise-identical
// to a rebuild from scratch.
//
//	go run ./scripts -kernels BENCH_kernels.json -pipeline BENCH_pipeline.json -gemm BENCH_gemm.json -fused BENCH_fused.json -serve BENCH_serve.json -delta BENCH_delta.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"seastar/internal/bench"
	"seastar/internal/graph"
	"seastar/internal/part"
)

func main() {
	kernelsPath := flag.String("kernels", "BENCH_kernels.json", "committed kernels baseline (empty to skip)")
	pipelinePath := flag.String("pipeline", "BENCH_pipeline.json", "committed pipeline baseline (empty to skip)")
	gemmPath := flag.String("gemm", "BENCH_gemm.json", "committed gemm baseline (empty to skip)")
	fusedPath := flag.String("fused", "BENCH_fused.json", "committed fused (closure-compiler) baseline (empty to skip)")
	servePath := flag.String("serve", "BENCH_serve.json", "committed serve adaptive-batching baseline (empty to skip)")
	deltaPath := flag.String("delta", "BENCH_delta.json", "committed graph-delta incremental-recompute baseline (empty to skip)")
	shardPath := flag.String("shard", "BENCH_shard.json", "committed sharded-serving baseline (empty to skip)")
	oocorePath := flag.String("oocore", "BENCH_oocore.json", "committed out-of-core store baseline (empty to skip)")
	kernelsTol := flag.Float64("kernels-tol", 0.10, "max allowed fractional regression of the kernels makespan speedup")
	pipelineTol := flag.Float64("pipeline-tol", 0.25, "max allowed fractional regression of the pipeline overlap speedup (wider: its inputs are measured)")
	gemmTol := flag.Float64("gemm-tol", 0.15, "max allowed fractional regression of the modeled gemm speedup")
	fusedTol := flag.Float64("fused-tol", 0.15, "max allowed fractional regression of the measured specialization speedup")
	fusedGatMin := flag.Float64("fused-gat-min", 3.0, "min committed single-worker speedup of the GAT aggregate kernel (non-positive to skip)")
	parallelMin := flag.Float64("parallel-min", 1.15, "min measured kernel wall-time speedup at 4 workers vs 1 (gate skipped when the host has <4 cores; negative to skip always)")
	obsMax := flag.Float64("obs-max", 0.02, "max modeled obs-disabled overhead on the kernels benchmark (negative to skip)")
	adaptiveMin := flag.Float64("adaptive-min", 1.10, "min committed adaptive re-planning speedup in the serve baseline (non-positive to skip)")
	deltaMin := flag.Float64("delta-min", 2.0, "min committed incremental-vs-full-forward speedup in the delta baseline (non-positive to skip)")
	deltaTouchedMax := flag.Float64("delta-touched-max", 0.01, "max per-delta touched-vertex fraction the delta baseline may claim the speedup at")
	shardCutMax := flag.Float64("shard-cut-max", 0.35, "max committed edge-cut ratio (dedup mirror flows / edges) in the shard baseline (non-positive to skip)")
	oocoreMax := flag.Float64("oocore-max", 1.30, "max committed store-vs-in-memory epoch-time ratio, measured and modeled (non-positive to skip)")
	shardLatencyMax := flag.Float64("shard-latency-max", 2.0, "max committed interior-vertex latency ratio (sharded / single-shard) in the shard baseline")
	divergenceWarn := flag.Float64("divergence-warn", 0.25, "fractional model-vs-measured divergence that triggers a WARN line (prints only, never fails; negative to skip)")
	flag.Parse()

	failed := false
	if *kernelsPath != "" {
		if err := checkKernels(*kernelsPath, *kernelsTol); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: kernels:", err)
			failed = true
		}
	}
	if *parallelMin >= 0 {
		if err := checkKernelsParallel(*parallelMin); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: kernels-parallel:", err)
			failed = true
		}
	}
	if *fusedPath != "" {
		if err := checkFused(*fusedPath, *fusedTol, *fusedGatMin); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: fused:", err)
			failed = true
		}
	}
	if *pipelinePath != "" {
		if err := checkPipeline(*pipelinePath, *pipelineTol); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: pipeline:", err)
			failed = true
		}
	}
	if *gemmPath != "" {
		if err := checkGemm(*gemmPath, *gemmTol); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: gemm:", err)
			failed = true
		}
	}
	if *obsMax >= 0 {
		if err := checkObs(*obsMax); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: obs:", err)
			failed = true
		}
	}
	if *servePath != "" && *adaptiveMin > 0 {
		if err := checkAdaptive(*servePath, *adaptiveMin); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: adaptive:", err)
			failed = true
		}
	}
	if *deltaPath != "" && *deltaMin > 0 {
		if err := checkDelta(*deltaPath, *deltaMin, *deltaTouchedMax); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: delta:", err)
			failed = true
		}
	}
	if *shardPath != "" && *shardCutMax > 0 {
		if err := checkShard(*shardPath, *shardCutMax, *shardLatencyMax); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: shard:", err)
			failed = true
		}
	}
	if *oocorePath != "" && *oocoreMax > 0 {
		if err := checkOOCore(*oocorePath, *oocoreMax); err != nil {
			fmt.Fprintln(os.Stderr, "bench_check: oocore:", err)
			failed = true
		}
	}
	if *divergenceWarn >= 0 {
		reportDivergence(*kernelsPath, *pipelinePath, *divergenceWarn)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("bench_check OK")
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// checkKernels replays the deterministic makespan model at the
// baseline's graph size and worker count; the edge-balanced-vs-uniform
// speedup must not fall more than tol below the committed value.
func checkKernels(path string, tol float64) error {
	var base bench.KernelsReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if len(base.Model) == 0 {
		return fmt.Errorf("%s has no makespan_model entries", path)
	}
	want := base.Model[0]

	cfg := bench.DefaultKernelsConfig()
	cfg.Vertices = base.Graph.Vertices
	cfg.AvgDegree = base.Graph.AvgDegree
	cfg.Alpha = base.Graph.Alpha
	cfg.Workers = want.Workers
	cfg.ModelOnly = true
	rep, err := bench.KernelsBench(cfg)
	if err != nil {
		return err
	}
	got := rep.Model[0]

	floor := want.Speedup * (1 - tol)
	fmt.Printf("kernels: modeled makespan speedup %.3fx (baseline %.3fx, floor %.3fx)\n",
		got.Speedup, want.Speedup, floor)
	if got.Speedup < floor {
		return fmt.Errorf("makespan speedup regressed: %.3fx < floor %.3fx (baseline %.3fx, tol %.0f%%)",
			got.Speedup, floor, want.Speedup, tol*100)
	}
	return nil
}

// checkKernelsParallel is the measured half of the kernels gate: the
// fused GAT kernel timed in-process at 1 and 4 scheduler workers. Wall
// time must drop by at least `min` when the host has ≥4 cores; on
// smaller runners real overlap is physically impossible, so the gate
// reports the core count and passes. No baseline file: both timings
// come from the same process, so the ratio is meaningful on any host
// fast or slow.
func checkKernelsParallel(min float64) error {
	const procs = 4
	if runtime.NumCPU() < procs {
		fmt.Printf("kernels-parallel: skipped (host has %d cores, gate needs %d)\n",
			runtime.NumCPU(), procs)
		return nil
	}
	cfg := bench.DefaultKernelsConfig()
	cfg.Vertices = 20000
	cfg.MaxProcsList = []int{1, procs}
	rep, err := bench.KernelsBench(cfg)
	if err != nil {
		return err
	}
	var serialNs, parallelNs int64
	for _, m := range rep.Measured {
		if m.Name != "edge_balanced" {
			continue
		}
		switch m.MaxProcs {
		case 1:
			serialNs = m.NsPerOp
		case procs:
			parallelNs = m.NsPerOp
		}
	}
	if serialNs <= 0 || parallelNs <= 0 {
		return fmt.Errorf("missing edge_balanced measurements at 1/%d workers", procs)
	}
	speedup := float64(serialNs) / float64(parallelNs)
	fmt.Printf("kernels-parallel: measured wall speedup %.2fx at %d workers (floor %.2fx)\n",
		speedup, procs, min)
	if speedup < min {
		return fmt.Errorf("measured parallel wall speedup %.2fx at %d workers below floor %.2fx",
			speedup, procs, min)
	}
	return nil
}

// checkFused re-times the closure-compiled edge loops against the
// interpreter in this process and gates on (a) bitwise equality of the
// two paths — hard, no tolerance — (b) each fused kernel's single-
// worker speedup not falling more than tol below the committed
// baseline, and (c) the committed GAT aggregate kernel (the
// scaled-gather unit) clearing gatMin at one worker — the closure
// compiler's headline number. Both sides of each re-measured ratio come
// from this process, so the comparison holds across host speeds; the
// gatMin gate reads the committed full-size report, where the ratio is
// not distorted by a cache-resident small graph.
func checkFused(path string, tol, gatMin float64) error {
	var base bench.FusedReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if len(base.Rows) == 0 {
		return fmt.Errorf("%s has no rows", path)
	}
	type key struct {
		pattern string
		unit    int
	}
	baseline := map[key]float64{}
	patterns := map[string]bool{}
	gatAggSpeedup := 0.0
	for _, r := range base.Rows {
		patterns[r.Pattern] = true
		if !r.BitwiseEqual {
			return fmt.Errorf("baseline %s row %s unit %d @%d records a bitwise mismatch — the committed report is broken",
				path, r.Pattern, r.Unit, r.MaxProcs)
		}
		if r.MaxProcs == 1 {
			baseline[key{r.Pattern, r.Unit}] = r.Speedup
			if r.Pattern == "gat" && strings.Contains(r.Spec, "gather") {
				gatAggSpeedup = r.Speedup
			}
		}
	}
	for _, p := range []string{"gat-bwd", "gcn-bwd"} {
		if !patterns[p] {
			return fmt.Errorf("baseline %s has no %s rows — the backward units are not gated; regenerate it", path, p)
		}
	}
	if gatMin > 0 {
		if gatAggSpeedup == 0 {
			return fmt.Errorf("baseline %s has no single-worker GAT aggregate (gather) row", path)
		}
		fmt.Printf("fused: committed GAT aggregate kernel speedup %.2fx (floor %.2fx)\n",
			gatAggSpeedup, gatMin)
		if gatAggSpeedup < gatMin {
			return fmt.Errorf("committed GAT aggregate kernel speedup %.2fx below floor %.2fx — regenerate or fix the specializer",
				gatAggSpeedup, gatMin)
		}
	}

	// Re-measure at the baseline's own graph shape: the interp/spec
	// ratio shifts with cache residency, so a smaller graph would gate
	// apples against oranges. Single worker keeps the run bounded.
	cfg := bench.DefaultFusedConfig()
	cfg.Vertices = base.Graph.Vertices
	cfg.AvgDegree = base.Graph.AvgDegree
	cfg.Alpha = base.Graph.Alpha
	cfg.MaxProcsList = []int{1}
	rep, err := bench.FusedBench(cfg)
	if err != nil {
		return err
	}
	for _, r := range rep.Rows {
		if !r.BitwiseEqual {
			return fmt.Errorf("%s unit %d: specialized and interpreted outputs diverged", r.Pattern, r.Unit)
		}
		want, ok := baseline[key{r.Pattern, r.Unit}]
		if !ok {
			continue
		}
		floor := want * (1 - tol)
		fmt.Printf("fused: %s unit %d (%s) speedup %.2fx (baseline %.2fx, floor %.2fx), bitwise equal\n",
			r.Pattern, r.Unit, r.Spec, r.Speedup, want, floor)
		if r.Speedup < floor {
			return fmt.Errorf("%s unit %d: specialization speedup regressed: %.2fx < floor %.2fx (baseline %.2fx, tol %.0f%%)",
				r.Pattern, r.Unit, r.Speedup, floor, want, tol*100)
		}
	}
	return nil
}

// checkGemm replays the deterministic arithmetic-intensity model and the
// feature-tile planner at the baseline's shapes: the modeled
// blocked-vs-naive speedup must not fall more than tol below the
// committed value at any dim, and the tile plans must match exactly
// (the planner is a pure function of the kernel shape).
func checkGemm(path string, tol float64) error {
	var base bench.GemmReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if len(base.Model) == 0 || len(base.AggPlan) == 0 {
		return fmt.Errorf("%s has no ai_model/agg_plan entries", path)
	}

	cfg := bench.DefaultGemmConfig()
	cfg.ModelOnly = true
	var dims []int
	for _, mo := range base.Model {
		dims = append(dims, mo.Dim)
	}
	cfg.Dims = dims
	cfg.Vertices = base.Graph.Vertices
	cfg.AvgDegree = base.Graph.AvgDegree
	cfg.Alpha = base.Graph.Alpha
	rep, err := bench.GemmBench(cfg)
	if err != nil {
		return err
	}

	for i, want := range base.Model {
		got := bench.GemmModel(base.Rows, want.Dim, want.Dim)
		floor := want.ModelSpeedup * (1 - tol)
		if got.ModelSpeedup < floor {
			return fmt.Errorf("dim %d: modeled speedup regressed: %.3fx < floor %.3fx (baseline %.3fx, tol %.0f%%)",
				want.Dim, got.ModelSpeedup, floor, want.ModelSpeedup, tol*100)
		}
		if i < len(rep.AggPlan) && i < len(base.AggPlan) && rep.AggPlan[i] != base.AggPlan[i] {
			return fmt.Errorf("dim %d: tile plan drifted: now %+v, baseline %+v — regenerate BENCH_gemm.json",
				want.Dim, rep.AggPlan[i], base.AggPlan[i])
		}
	}
	last := base.Model[len(base.Model)-1]
	got := bench.GemmModel(base.Rows, last.Dim, last.Dim)
	fmt.Printf("gemm: modeled speedup at dim %d %.3fx (baseline %.3fx), %d tile plans match\n",
		last.Dim, got.ModelSpeedup, last.ModelSpeedup, len(base.AggPlan))
	return nil
}

// checkObs measures the tracing layer's disabled cost against the
// kernels benchmark on this host and fails if the modeled overhead
// (spans-per-launch × disabled-span ns ÷ kernel ns/launch) exceeds max.
// No baseline file: both terms are measured in the same process, so the
// ratio is meaningful on any runner.
func checkObs(max float64) error {
	cfg := bench.DefaultKernelsConfig()
	cfg.Vertices = 20000 // smaller graph → worst case for relative overhead
	rep, err := bench.ObsOverheadBench(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("obs: modeled disabled overhead %.4f%% (span %.1f ns × %d ÷ launch %d ns; ceiling %.1f%%), enabled measured %.2f%%\n",
		rep.ModeledOverheadOff*100, rep.DisabledSpanNs, rep.SpansPerLaunch,
		rep.KernelNsPerLaunch, max*100, rep.MeasuredOverheadOn*100)
	if rep.ModeledOverheadOff > max {
		return fmt.Errorf("disabled tracing overhead %.4f%% exceeds ceiling %.1f%%",
			rep.ModeledOverheadOff*100, max*100)
	}
	return nil
}

// checkAdaptive gates the committed adaptive re-planning evidence in the
// serve baseline: the engine's measured micro-batch re-planner must have
// committed a learned batch size that beat the latency-tuned static cap
// by at least `min`× on end-to-end per-request latency (the interleaved
// min-of-trials numbers the hysteresis decision was made from), and
// every answer served during exploration and after the plan swap must
// have matched the serial forward bit for bit. Committed-only — the
// experiment saturates a 100k-vertex graph for a minute or more, so CI
// reads the evidence rather than re-running it; regenerate with
// `seastar-bench -exp serve -serve-out BENCH_serve.json`.
func checkAdaptive(path string, min float64) error {
	var base bench.ServeReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if !base.BitwiseEqual {
		return fmt.Errorf("committed adaptive serve run answered differently from the serial forward — reproducibility broken")
	}
	if base.LearnedMaxBatch <= 0 || base.Gen <= 0 {
		return fmt.Errorf("%s has no settled plan (learned_max_batch=%d, gen=%d) — regenerate with seastar-bench -exp serve",
			path, base.LearnedMaxBatch, base.Gen)
	}
	fmt.Printf("adaptive: committed serve re-planning speedup %.2fx on n=%d (max_batch %d → %d, gen=%d; floor %.2fx), bitwise equal\n",
		base.MeasuredSpeedup, base.Graph.Vertices,
		base.StaticMaxBatch, base.LearnedMaxBatch, base.Gen, min)
	if base.MeasuredSpeedup < min {
		return fmt.Errorf("committed adaptive speedup %.2fx below floor %.2fx — the learned plan no longer pays for itself",
			base.MeasuredSpeedup, min)
	}
	return nil
}

// checkDelta gates the committed graph-delta evidence: every incremental
// child's embeddings must have matched a rebuild-from-scratch forward bit
// for bit — hard, no tolerance — and the incremental recompute must have
// beaten the full forward by at least `min`× while each delta touched no
// more than touchedMax of the vertices (the regime the speedup claim is
// scoped to). Committed-only — each of the 30 deltas pays a full rebuild
// baseline on a 100k-vertex graph, so CI reads the evidence and the
// nightly bench job regenerates it with
// `seastar-bench -exp delta -delta-out BENCH_delta.json`.
func checkDelta(path string, min, touchedMax float64) error {
	var base bench.DeltaReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if !base.BitwiseEqual {
		return fmt.Errorf("committed delta run diverged from rebuild-from-scratch — incremental recompute broken")
	}
	if base.Deltas <= 0 || base.Incremental <= 0 {
		return fmt.Errorf("%s has no incremental deltas (%d of %d) — regenerate with seastar-bench -exp delta",
			path, base.Incremental, base.Deltas)
	}
	if base.TouchedFrac > touchedMax {
		return fmt.Errorf("committed deltas touched %.3f%% of vertices, above the %.1f%% regime the gate scopes the speedup to",
			base.TouchedFrac*100, touchedMax*100)
	}
	fmt.Printf("delta: committed incremental recompute %.2fx vs full forward, %.2fx vs rebuild on n=%d (%d/%d incremental, %.4f%% touched; floor %.2fx), bitwise equal\n",
		base.SpeedupVsFull, base.SpeedupVsRebuild, base.Graph.Vertices,
		base.Incremental, base.Deltas, base.TouchedFrac*100, min)
	if base.SpeedupVsFull < min {
		return fmt.Errorf("committed incremental speedup %.2fx below floor %.2fx — the delta path no longer pays for itself",
			base.SpeedupVsFull, min)
	}
	return nil
}

// checkShard gates the committed sharded-serving baseline
// (BENCH_shard.json, regenerated nightly with `seastar-bench -exp shard
// -shard-out BENCH_shard.json`): the bitwise flag is a hard fail, the
// edge-cut ratio (deduplicated mirror flows over edges) must stay under
// cutMax, and measured interior-vertex latency must stay within
// latencyMax of the single-shard deployment. The partitioner is
// deterministic, so the partition-quality half of the baseline is also
// re-derived here from the committed (seed, size, mode, shard count)
// and must reproduce exactly — a drifted partitioner cannot hide behind
// a stale JSON.
func checkShard(path string, cutMax, latencyMax float64) error {
	var base bench.ShardReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if !base.BitwiseEqual {
		return fmt.Errorf("committed sharded logits diverged from the single-process forward — merge order or normalizers broken")
	}
	if base.EdgeCutRatio > cutMax {
		return fmt.Errorf("committed edge-cut ratio %.3f above the %.2f cap — partitioner quality regressed",
			base.EdgeCutRatio, cutMax)
	}
	if base.LatencyRatio <= 0 {
		return fmt.Errorf("%s has no interior-vertex latency measurement — regenerate with seastar-bench -exp shard", path)
	}
	if base.LatencyRatio > latencyMax {
		return fmt.Errorf("committed interior-vertex latency %.2fx single-shard, above the %.1fx cap",
			base.LatencyRatio, latencyMax)
	}
	rng := rand.New(rand.NewSource(base.Seed))
	g := graph.ZipfDegree(rng, base.Graph.Vertices, base.Graph.AvgDegree, base.Graph.Alpha)
	p, err := part.Build(g, base.Shards, base.Mode)
	if err != nil {
		return fmt.Errorf("re-deriving committed partition: %w", err)
	}
	if p.Stats.MirrorFlows != base.MirrorFlows || !approxEq(p.Stats.EdgeCutRatio, base.EdgeCutRatio) ||
		!approxEq(p.Stats.Replication, base.Replication) {
		return fmt.Errorf("partition drifted from committed baseline: cut %.6f/flows %d/repl %.4f now, %.6f/%d/%.4f committed — regenerate %s",
			p.Stats.EdgeCutRatio, p.Stats.MirrorFlows, p.Stats.Replication,
			base.EdgeCutRatio, base.MirrorFlows, base.Replication, path)
	}
	fmt.Printf("shard: committed %d-way %s partition cut %.3f (cap %.2f), repl %.2fx, interior latency %.2fx single-shard (cap %.1fx), bitwise equal; partition re-derived OK\n",
		base.Shards, base.Mode, base.EdgeCutRatio, cutMax, base.Replication, base.LatencyRatio, latencyMax)
	return nil
}

// checkOOCore gates the out-of-core store baseline: the committed
// store-backed epoch must be bitwise-equal to in-memory and within the
// ratio cap both as measured and under the capped-cache model. It then
// re-derives the contract in-process at small scale — convert, reopen,
// fingerprint-verify, and one epoch of store-vs-memory training — so
// format or equivalence drift fails CI even with a stale JSON.
func checkOOCore(path string, ratioMax float64) error {
	var base bench.OOCoreReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	if !base.BitwiseEqual {
		return fmt.Errorf("committed store-backed loss curve diverged from in-memory — the mmap path changed numerics")
	}
	if base.MeasuredRatio <= 0 || base.InMemEpochNs <= 0 {
		return fmt.Errorf("%s has no epoch measurements — regenerate with seastar-bench -exp oocore", path)
	}
	if base.MeasuredRatio > ratioMax {
		return fmt.Errorf("committed store-backed epoch %.2fx in-memory, above the %.2fx cap",
			base.MeasuredRatio, ratioMax)
	}
	if base.Model.Ratio > ratioMax {
		return fmt.Errorf("modeled capped-cache epoch %.2fx in-memory (cache %.0f%%), above the %.2fx cap",
			base.Model.Ratio, base.Model.CacheFrac*100, ratioMax)
	}
	if err := bench.OOCoreRederive(); err != nil {
		return err
	}
	capNote := "warm-cache"
	if base.MemCapBytes > 0 {
		capNote = fmt.Sprintf("capped at %d MB", base.MemCapBytes>>20)
	}
	fmt.Printf("oocore: committed store-backed epoch %.2fx in-memory (%s, cap %.2fx), model %.2fx at %.0f%% cache, bitwise equal; convert+train re-derived OK\n",
		base.MeasuredRatio, capNote, ratioMax, base.Model.Ratio, base.Model.CacheFrac*100)
	return nil
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// reportDivergence prints model-vs-measured columns from the committed
// baselines: the kernels makespan model's ideal speedup against the
// measured same-variant wall scaling at each worker count, and the
// pipeline overlap model against each measured wall speedup. A gap above
// `warn` gets a WARN marker but never fails the gate — the models are
// host-independent by design, so divergence is a signal that this host's
// measured profile disagrees with the plan (exactly what the adaptive
// layer consumes), not a regression.
func reportDivergence(kernelsPath, pipelinePath string, warn float64) {
	mark := func(model, measured float64) string {
		if model <= 0 || measured <= 0 {
			return " (no measurement)"
		}
		d := (model - measured) / model
		if d < 0 {
			d = -d
		}
		if d > warn {
			return fmt.Sprintf(" WARN divergence %.0f%% > %.0f%%", d*100, warn*100)
		}
		return fmt.Sprintf(" (divergence %.0f%%)", d*100)
	}
	if kernelsPath != "" {
		var base bench.KernelsReport
		if err := readJSON(kernelsPath, &base); err == nil {
			ideal := map[int]float64{}
			for _, mo := range base.Model {
				ideal[mo.Workers] = mo.IdealSpeedup
			}
			for _, m := range base.Measured {
				if m.Name != "edge_balanced" || m.MaxProcs <= 1 || m.MeasuredSpeedup <= 0 {
					continue
				}
				fmt.Printf("divergence: kernels @%dw: model %.2fx vs measured %.2fx%s\n",
					m.MaxProcs, ideal[m.MaxProcs], m.MeasuredSpeedup,
					mark(ideal[m.MaxProcs], m.MeasuredSpeedup))
			}
		}
	}
	if pipelinePath != "" {
		var base bench.PipelineReport
		if err := readJSON(pipelinePath, &base); err == nil {
			for _, r := range base.PerProcs {
				// Prefer the row's calibrated prediction (profiled stage
				// costs floored by CPU capacity); old baselines without it
				// fall back to the host-independent replay, which
				// over-promises on small hosts.
				model, kind := r.ModelSpeedup, "calibrated"
				if model <= 0 {
					model, kind = base.OverlapModel.Speedup, "model"
				}
				fmt.Printf("divergence: pipeline @%d procs: %s %.2fx vs measured wall %.2fx%s\n",
					r.MaxProcs, kind, model, r.WallSpeedup, mark(model, r.WallSpeedup))
			}
		}
	}
}

// checkPipeline re-runs the pipeline benchmark at the baseline's shape
// and gates on (a) bitwise-equal loss curves — a hard reproducibility
// invariant — and (b) the modeled overlap speedup not regressing more
// than tol below the committed value. When the committed baseline
// carries an adaptive section, its bitwise flag is a hard gate too: the
// pipeline tuner is free to validate the static shape (hysteresis
// holding against host noise is a correct outcome, so no speedup floor
// here), but exploration must never have perturbed the loss curve.
func checkPipeline(path string, tol float64) error {
	var base bench.PipelineReport
	if err := readJSON(path, &base); err != nil {
		return err
	}
	want := base.OverlapModel
	if want.Speedup <= 0 {
		return fmt.Errorf("%s has no overlap_model speedup", path)
	}
	if ad := base.Adaptive; ad != nil {
		if !ad.BitwiseEqual {
			return fmt.Errorf("committed adaptive pipeline run perturbed the loss curve — reproducibility broken")
		}
		fmt.Printf("pipeline: committed adaptive evidence pf %d/w %d → pf %d/w %d (gen=%d, %.2fx), bitwise equal\n",
			ad.StaticPrefetch, ad.StaticWorkers, ad.LearnedPrefetch, ad.LearnedWorkers,
			ad.Gen, ad.MeasuredSpeedup)
	}

	cfg := bench.DefaultPipelineBenchConfig()
	cfg.Vertices = base.Graph.Vertices
	cfg.AvgDegree = base.Graph.AvgDegree
	cfg.Alpha = base.Graph.Alpha
	cfg.BatchSize = base.BatchSize
	cfg.FanOut = base.FanOut
	cfg.Prefetch = base.Prefetch
	cfg.SampleWorkers = base.SampleWorkers
	rep, err := bench.PipelineBench(cfg)
	if err != nil {
		return err
	}

	if !rep.BitwiseEqual {
		return fmt.Errorf("pipelined and serial loss curves diverged — reproducibility broken")
	}
	got := rep.OverlapModel
	floor := want.Speedup * (1 - tol)
	fmt.Printf("pipeline: modeled overlap speedup %.3fx (baseline %.3fx, floor %.3fx), bitwise equal\n",
		got.Speedup, want.Speedup, floor)
	if got.Speedup < floor {
		return fmt.Errorf("overlap speedup regressed: %.3fx < floor %.3fx (baseline %.3fx, tol %.0f%%)",
			got.Speedup, floor, want.Speedup, tol*100)
	}
	return nil
}
