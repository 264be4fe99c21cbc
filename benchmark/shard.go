package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/part"
	"seastar/internal/serve"
	"seastar/internal/shard"
	"seastar/internal/tensor"
)

const (
	shardCount = 2
	shardMode  = "greedy"
)

// shardInputs is the generated graph plus the single-process logits every
// sharded answer is checked against.
type shardInputs struct {
	g     *graph.Graph
	feat  *tensor.Tensor
	nodes [][]int32
	table *tensor.Tensor
}

func genShard(seed int64, sz *sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &shardInputs{g: graph.ZipfDegree(rng, sz.ShardVertices, serveAvgDegree, serveAlpha)}
	in.feat = tensor.Randn(rng, 1, in.g.N, serveFeatDim)
	// Uniform random vertices: with two shards almost every request of 16
	// has owners on both.
	in.nodes, _ = genRequests(rng, in.g.N, sz.ShardNodes)
	return in, nil
}

func shardModel(rc *roundCtx) serve.ModelSpec {
	return serve.ModelSpec{Arch: "gcn", Hidden: rc.Sz.Hidden, Classes: serveClasses, Seed: rc.Seed}
}

// refShard runs the single-process Model.Forward the sharded deployment
// must reproduce bit for bit.
func refShard(rc *roundCtx, input any) error {
	in := input.(*shardInputs)
	spec := shardModel(rc)
	m, err := serve.BuildModel(spec, in.feat.Cols(), 1)
	if err != nil {
		return err
	}
	snap, err := serve.NewSnapshot(in.g, in.feat)
	if err != nil {
		return err
	}
	env := &serve.ForwardEnv{G: snap.Graph(), Feat: snap.Features(), Dev: device.New(device.V100), Pool: tensor.NewPool()}
	serve.NormsFor(spec.Arch, snap, env.G, env)
	in.table, err = m.Forward(env)
	return err
}

// rowsEqual compares a coordinator answer with the reference table, bit
// for bit.
func (in *shardInputs) rowsEqual(res *serve.Result) bool {
	if res == nil {
		return false
	}
	for i, v := range res.Nodes {
		if firstDiff(res.Logits.Row(i), in.table.Row(int(v))) >= 0 {
			return false
		}
	}
	return true
}

func roundShard(rc *roundCtx, input any) error {
	in := input.(*shardInputs)
	sz := rc.Sz
	spec := shardModel(rc)
	ctx := context.Background()
	limit := time.Duration(sz.LimitMs * float64(time.Millisecond))

	// Set-up: partition + deploy the workers and the coordinator, first
	// sync, first answer.
	root := rc.Rec.begin(0, "round")
	setupSpan := rc.Rec.begin(root, "setup")
	setupStart := time.Now()
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	urls := make([]string, shardCount)
	for s := range urls {
		w, err := shard.NewWorker(in.g, in.feat, spec, shardCount, s, shardMode, device.V100)
		if err != nil {
			return err
		}
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		urls[s] = srv.URL
	}
	c, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Spec: spec, Workers: urls, Mode: shardMode,
		Client: &http.Client{Transport: transport, Timeout: 30 * time.Second},
	}, in.g)
	if err != nil {
		return err
	}
	first, err := c.Infer(ctx, in.nodes[0])
	if err != nil {
		return fmt.Errorf("first sync: %w", err)
	}
	setup := time.Since(setupStart)
	rc.Rec.end(setupSpan)

	// Untimed: all N logits through the coordinator against the table.
	rc.ok(in.rowsEqual(first), "first sharded answer differs from the single-process forward")
	for lo := 0; lo < in.g.N; lo += 4096 {
		nodes := make([]int32, 0, 4096)
		for v := lo; v < min(lo+4096, in.g.N); v++ {
			nodes = append(nodes, int32(v))
		}
		res, err := c.Infer(ctx, nodes)
		rc.ok(err == nil && in.rowsEqual(res), "sharded logits [%d,%d) differ from the single-process forward (%v)", lo, lo+len(nodes), err)
	}

	// Forced resyncs: re-point a worker at its own URL, then the first
	// answer pays the whole exchange.
	if rc.Trace {
		obs.Reset()
	}
	var syncs []float64
	var syncBytes int64
	var spent time.Duration
	for i := 0; i < sz.Resyncs; i++ {
		tx0, rx0 := c.TotalBytes()
		t0 := time.Now()
		c.SetWorker(i%shardCount, urls[i%shardCount])
		res, err := c.Infer(ctx, in.nodes[i+1])
		t1 := time.Now()
		rc.Rec.add(root, "resync", t0, t1)
		syncs = append(syncs, ms(t1.Sub(t0)))
		spent += t1.Sub(t0)
		rc.ok(err == nil && in.rowsEqual(res), "answer after resync %d wrong (%v)", i, err)
		tx1, rx1 := c.TotalBytes()
		syncBytes = tx1 - tx0 + rx1 - rx0
	}

	// What is left of the budget is split between the two loops, but the
	// open loop keeps at least a second so that its windows have samples.
	rest := max(rc.Budget-spent, 0)
	openDur := max(time.Duration(float64(rest)*openShare), min(time.Second, rc.Budget))
	closedDur := max(rest-openDur, rc.Budget/10)
	rng := rand.New(rand.NewSource(rc.Seed ^ 0x6f70656e))
	sched := poissonSchedule(rng, sz.ShardRate, openDur)
	answers := make([]*serve.Result, len(sched))
	op := func(i int) (*serve.Result, bool) {
		res, err := c.Infer(ctx, in.nodes[i%bodyPool])
		return res, err == nil
	}
	tx0, rx0 := c.TotalBytes()
	openSpan := rc.Rec.begin(root, "open-loop")
	open := runOpenLoop(sched, func(i int) bool {
		res, ok := op(i)
		answers[i] = res
		return ok
	})
	rc.Rec.end(openSpan)
	tx1, rx1 := c.TotalBytes()
	ents := obs.Snapshot()

	closedSpan := rc.Rec.begin(root, "closed-loop")
	closed := runClosedLoop(sz.ShardCallers, closedDur, func(seq int) bool {
		res, ok := op(len(sched) + seq)
		return ok && in.rowsEqual(res)
	})
	rc.Rec.end(closedSpan)
	rss := peakRSSMB()
	rc.Rec.end(root)

	outcome := open.Outcome()
	for i, s := range open.Samples {
		rc.ok(s.OK && in.rowsEqual(answers[i]), "open-loop request %d: ok=%v or wrong rows", i, s.OK)
	}
	rc.tally(closed.OK, closed.Failed)
	latencies := latenciesMs(open.Samples)
	rc.set("setup_s", setup.Seconds())
	rc.set("op_ms_p50", percentile(latencies, 50))
	rc.set("op_ms_p95", percentile(latencies, 95))
	rc.set("ops_per_s", closed.OpsPerSec())
	rc.set("peak_rss_mb", rss)

	if !rc.Trace {
		return outcome
	}
	rc.set("serve.gen_lateness_ms_p99", ms(open.LatenessP99))
	rc.set("serve.over_limit_total", float64(open.slowerThan(limit)))
	rc.set("sync_ms_p50", percentile(syncs, 50))
	rc.set("shard.sync_bytes", float64(syncBytes))
	rc.set("shard.gather_bytes_per_op", ratio(float64(tx1-tx0+rx1-rx0), float64(len(sched))))
	steps, stepT := obsTotals(ents, "shard", "/step")
	gathers, gatherT := obsTotals(ents, "shard", "/gather")
	rc.set("shard.step_ms", ratio(ms(stepT), float64(steps)))
	rc.set("shard.gather_ms", ratio(ms(gatherT), float64(gathers)))
	t0 := time.Now()
	p, err := part.Build(in.g, shardCount, shardMode)
	if err != nil {
		return err
	}
	rc.set("part.build_ms", ms(time.Since(t0)))
	rc.set("part.edge_cut_ratio", p.Stats.EdgeCutRatio)
	rc.set("part.replication", p.Stats.Replication)
	return outcome
}
