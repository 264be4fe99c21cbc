package main

// The registry is the single definition of what the benchmark runs and
// reports. BENCHMARK.json at the repository root repeats the workload
// and metric lists for the driver; TestRegistryMatchesBenchmarkJSON keeps
// the two equal.

// Workload names. They are final: later changes are compared per
// (metric, workload) pair against runs made under these names.
const (
	wTrainFullGAT    = "train-full-gat"
	wTrainFullGCN    = "train-full-gcn"
	wTrainMBSage     = "train-mb-sage"
	wServeSampled    = "serve-sampled"
	wServeEmbedMixed = "serve-embed-mixed"
	wServeShard2     = "serve-shard2"
)

// workloadDef names one workload, why it was chosen, and how to build
// and run it.
type workloadDef struct {
	Name string
	Why  string
	// gen builds the workload's inputs from the seed. It is timed as
	// datasets.gen_s and excluded from setup_s.
	gen func(seed int64, sz *sizes) (any, error)
	// reference computes the answers the rounds' correctness checks compare
	// against, by a path independent of the one measured. It runs once per
	// process, before the first round, so that no round is the one that
	// pays for it; nil when the checks need none.
	reference func(rc *roundCtx, in any) error
	// round runs one set-up + timed section + correctness check on the
	// inputs and fills rc with this round's values.
	round func(rc *roundCtx, in any) error
}

var workloads = []workloadDef{
	{wTrainFullGAT,
		"full-graph GAT epoch on a power-law graph: fused edge kernels carry the time, GEMM is small",
		genTrainFull(gatSpec), refTrainFull(gatSpec), roundTrainFull(gatSpec)},
	{wTrainFullGCN,
		"full-graph GCN epoch on wide features: dense GEMM carries the time, the edge kernel little",
		genTrainFull(gcnSpec), refTrainFull(gcnSpec), roundTrainFull(gcnSpec)},
	{wTrainMBSage,
		"sampled mini-batch epoch: sampling, gather and pipeline queueing carry the time, kernels are tiny",
		genTrainMB, refTrainMB, roundTrainMB},
	{wServeSampled,
		"per-request sampled inference over HTTP handlers: admission, micro-batching, sampling, JSON; no training",
		genServe(sampledSpec), nil, roundServe(sampledSpec)},
	{wServeEmbedMixed,
		"cached-embedding reads beside a delta writer: the same snapshot layer serves reads and takes writes",
		genServe(embedSpec), refEmbed, roundServe(embedSpec)},
	{wServeShard2,
		"two shard workers behind a coordinator: partitioning, the shard wire and exchange rounds carry the time",
		genShard, refShard, roundShard},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// On lists the workloads that exercise a per-layer metric's layer; nil
	// means all. Elsewhere the metric is 0 (the layer was bypassed). Every
	// end-to-end metric has a meaning on every workload.
	On []string
	// Moves names, for a per-layer metric, the metric it should move: an
	// end-to-end one, or one of the three outcomes kept per-layer
	// (op_ms_p95, ops_per_s, delta_ms_p50).
	Moves string
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onServe     = []string{wServeSampled, wServeEmbedMixed, wServeShard2}
	onTrainFull = []string{wTrainFullGAT, wTrainFullGCN}
	onMB        = []string{wTrainMBSage}
	onSampled   = []string{wServeSampled}
	onEmbed     = []string{wServeEmbedMixed}
	onShard     = []string{wServeShard2}
)

// metricsOf returns the metrics a run reports: the per-layer ledger when
// traced, the end-to-end metrics otherwise.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// A bound is three times the metric's widest spread (interquartile range
// over the median of ten runs on ten seeds, README "Committed numbers")
// over the six workloads, in steps of 0.05 and capped at the 0.25 the
// driver allows. Metrics whose spread is beyond a third of
// that cap on most serving workloads (op_ms_p95, ops_per_s, delta_ms_p50,
// sync_ms_p50) are per-layer; op_ms_p50 and setup_s stay whatever their
// spread, because nothing else would gate latency and set-up.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

var perLayer = []metricDef{
	// Fused edge kernels: move op_ms_p50 on train-full-gat, must not move train-full-gcn.
	{Name: "kernels.fwd_busy_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "kernels.bwd_busy_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "kernels.edges_per_op", Unit: "count", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "kernels.specialized_units", Unit: "count", Better: "higher", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "kernels.interpreted_units", Unit: "count", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "kernels.agg_gbps_computed", Unit: "GB/s", Better: "higher", On: onTrainFull, Moves: "op_ms_p50"},
	// Dense execution: moves op_ms_p50 on train-full-gcn, little on train-full-gat.
	{Name: "exec.dense_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "exec.paramgrad_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "exec.pool_hit_ratio", Unit: "ratio", Better: "higher", On: onTrainFull, Moves: "op_ms_p50"},
	// Bench-side ledger of a full-graph epoch; the four rows sum to ≥ 95 % of it.
	{Name: "models.forward_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "nn.optimizer_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "train.ledger_coverage", Unit: "ratio", Better: "higher", On: onTrainFull, Moves: "op_ms_p50"},
	{Name: "exec.compile_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "setup_s"},
	{Name: "fusion.fwd_units", Unit: "count", Better: "lower", On: onTrainFull, Moves: "setup_s"},
	{Name: "fusion.bwd_units", Unit: "count", Better: "lower", On: onTrainFull, Moves: "setup_s"},
	{Name: "graph.degree_sort_ms", Unit: "ms", Better: "lower", On: onTrainFull, Moves: "setup_s"},
	// Mini-batch pipeline: moves op_ms_p50 on train-mb-sage.
	{Name: "sampling.sample_ms_per_batch", Unit: "ms", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "pipeline.gather_ms_per_batch", Unit: "ms", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "pipeline.compute_ms_per_batch", Unit: "ms", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "pipeline.compute_stall_ms_per_op", Unit: "ms", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "pipeline.batches_per_op", Unit: "count", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "pipeline.overlap_ratio", Unit: "ratio", Better: "higher", On: onMB, Moves: "op_ms_p50"},
	{Name: "sampling.sample_us_per_seed", Unit: "us", Better: "lower", On: onMB, Moves: "op_ms_p50"},
	{Name: "sampling.gather_gbps", Unit: "GB/s", Better: "higher", On: onMB, Moves: "op_ms_p50"},
	// The open-loop tail, the closed-loop throughput and the writer's
	// latency. Issue 13 listed all three end to end; their spread over ten
	// seeds (10-30 %) fits no bound, so by the issue's own rule they sit
	// here under their own names.
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", On: onServe},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", On: onServe},
	{Name: "delta_ms_p50", Unit: "ms", Better: "lower", On: onEmbed},
	// Serving engine: moves op_ms_p50, op_ms_p95 and ops_per_s on serve-sampled.
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", On: onSampled, Moves: "op_ms_p50"},
	{Name: "serve.infer_ms_p50", Unit: "ms", Better: "lower", On: onSampled, Moves: "op_ms_p50"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher", On: onSampled, Moves: "ops_per_s"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", On: onSampled, Moves: "op_ms_p50"},
	{Name: "serve.rejected_total", Unit: "count", Better: "lower", On: []string{wServeSampled, wServeEmbedMixed}, Moves: "op_ms_p95"},
	{Name: "serve.plan_compiles", Unit: "count", Better: "lower", On: []string{wServeSampled, wServeEmbedMixed}, Moves: "setup_s"},
	{Name: "serve.gen_lateness_ms_p99", Unit: "ms", Better: "lower", On: onServe, Moves: "op_ms_p95"},
	// What timing alone got wrong. Neither is a failed op: "correct" is
	// about answers. over_limit counts open-loop responses slower than the
	// frozen limit_ms, late_rounds the rounds of the run that were kept
	// although their generator ran late even when repeated.
	{Name: "serve.over_limit_total", Unit: "count", Better: "lower", On: onServe, Moves: "op_ms_p95"},
	{Name: "serve.late_rounds", Unit: "count", Better: "lower", On: onServe, Moves: "op_ms_p50"},
	// Delta path: moves delta_ms_p50 and the read op_ms_p95 on serve-embed-mixed.
	{Name: "serve.delta_apply_ms", Unit: "ms", Better: "lower", On: onEmbed, Moves: "delta_ms_p50"},
	{Name: "serve.delta_recompute_ms", Unit: "ms", Better: "lower", On: onEmbed, Moves: "delta_ms_p50"},
	{Name: "serve.delta_frontier_rows", Unit: "count", Better: "lower", On: onEmbed, Moves: "delta_ms_p50"},
	{Name: "serve.delta_incremental_ratio", Unit: "ratio", Better: "higher", On: onEmbed, Moves: "delta_ms_p50"},
	{Name: "graph.shared_chunk_ratio", Unit: "ratio", Better: "higher", On: onEmbed, Moves: "delta_ms_p50"},
	{Name: "serve.read_ms_p50_idle", Unit: "ms", Better: "lower", On: onEmbed, Moves: "op_ms_p50"},
	{Name: "serve.read_ms_p50_during_delta", Unit: "ms", Better: "lower", On: onEmbed, Moves: "op_ms_p95"},
	// Sharding: moves setup_s (first sync, wire, partition) and op_ms_p50
	// (gather) on serve-shard2. sync_ms_p50 is the median forced-resync-plus-
	// first-answer time; issue 13 listed it end to end, but it follows how
	// evenly the seed's graph happens to split (±20 % between seeds), so it
	// cannot hold a bound and sits here under its own name.
	{Name: "sync_ms_p50", Unit: "ms", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "part.build_ms", Unit: "ms", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "part.edge_cut_ratio", Unit: "ratio", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "part.replication", Unit: "ratio", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "shard.sync_bytes", Unit: "count", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "shard.gather_bytes_per_op", Unit: "count", Better: "lower", On: onShard, Moves: "op_ms_p50"},
	{Name: "shard.step_ms", Unit: "ms", Better: "lower", On: onShard, Moves: "setup_s"},
	{Name: "shard.gather_ms", Unit: "ms", Better: "lower", On: onShard, Moves: "op_ms_p50"},
	// Every workload.
	{Name: "host.cores", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.stream_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "host.gemm_peak_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "datasets.gen_s", Unit: "s", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "op_ms_p50"},
}
