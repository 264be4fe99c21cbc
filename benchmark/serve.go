package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

const (
	serveAvgDegree = 8
	serveAlpha     = 1.0
	serveFeatDim   = 64
	serveClasses   = 8
	// bodyPool is how many distinct request bodies a round cycles through.
	bodyPool = 4096
	// warmRequests are served before the set-up clock stops: they compile
	// the plan and fill the pools (and, in embed mode, the embedding cache).
	warmRequests = 32
)

// serveSpec distinguishes the two single-process serving workloads.
type serveSpec struct {
	arch  string
	embed bool // EmbedCache mode beside a delta writer; otherwise sampled
	shape func(sz *sizes) (vertices, nodes, callers int, rate float64)
}

var (
	sampledSpec = serveSpec{"gat", false, func(sz *sizes) (int, int, int, float64) {
		return sz.SampledVertices, sz.SampledNodes, sz.SampledCallers, sz.SampledRate
	}}
	embedSpec = serveSpec{"gcn", true, func(sz *sizes) (int, int, int, float64) {
		return sz.EmbedVertices, sz.EmbedNodes, sz.EmbedCallers, sz.EmbedRate
	}}
)

type serveInputs struct {
	g      *graph.Graph
	feat   *tensor.Tensor
	nodes  [][]int32 // request i asks for nodes[i % bodyPool]
	bodies [][]byte  // the same requests as /v1/infer JSON bodies

	// serve-embed-mixed only: the writer's schedule and deltas for one
	// round, and every vertex's logits once all of them are applied.
	deltaSched []time.Duration
	deltas     []*serve.Delta
	finalRows  *tensor.Tensor
}

func (s serveSpec) model(rc *roundCtx) serve.ModelSpec {
	return serve.ModelSpec{Arch: s.arch, Hidden: rc.Sz.Hidden, Classes: serveClasses, Seed: rc.Seed}
}

func genServe(spec serveSpec) func(int64, *sizes) (any, error) {
	return func(seed int64, sz *sizes) (any, error) {
		vertices, perReq, _, _ := spec.shape(sz)
		rng := rand.New(rand.NewSource(seed))
		in := &serveInputs{g: graph.ZipfDegree(rng, vertices, serveAvgDegree, serveAlpha)}
		in.feat = tensor.Randn(rng, 1, in.g.N, serveFeatDim)
		in.nodes, in.bodies = genRequests(rng, in.g.N, perReq)
		return in, nil
	}
}

// genRequests draws bodyPool requests of perReq uniform random vertices.
func genRequests(rng *rand.Rand, n, perReq int) (nodes [][]int32, bodies [][]byte) {
	for i := 0; i < bodyPool; i++ {
		ns := make([]int32, perReq)
		for j := range ns {
			ns[j] = int32(rng.Intn(n))
		}
		body, _ := json.Marshal(map[string]any{"nodes": ns}) // a map of ints cannot fail to marshal
		nodes, bodies = append(nodes, ns), append(bodies, body)
	}
	return nodes, bodies
}

// post drives one request through an http.Handler with an httptest
// recorder: JSON decode and encode are inside, sockets are not.
func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// deltaSample is one ApplyDelta of the writer.
type deltaSample struct {
	Due, Start, End time.Time
	Stats           *serve.DeltaStats
	Err             error
}

// runWriter applies deltas one after another on a fixed schedule counted
// from start. Each addresses the generation current when it is sent, and
// its latency counts from its due time.
func runWriter(e *serve.Engine, start time.Time, sched []time.Duration, deltas []*serve.Delta) []deltaSample {
	out := make([]deltaSample, 0, len(sched))
	for i, off := range sched {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		d := *deltas[i]
		d.ParentGen = e.Generation()
		s := deltaSample{Due: due, Start: time.Now()}
		s.Stats, s.Err = e.ApplyDelta(&d)
		s.End = time.Now()
		out = append(out, s)
	}
	return out
}

// genDeltas draws n deltas of 4 edge adds, 2 edge removes and 3 feature
// rows. Removed pairs are distinct original edges and no added edge
// repeats a pair that is ever removed, so the final edge list is the
// original minus the removed pairs plus the additions in order.
func genDeltas(seed int64, g *graph.Graph, n int) []*serve.Delta {
	rng := rand.New(rand.NewSource(seed ^ 0x64656c7461))
	removed := map[graph.Edge]bool{}
	var removes []graph.Edge
	var deltas []*serve.Delta
	for len(removes) < 2*n {
		i := rng.Intn(g.M)
		e := graph.Edge{Src: g.Srcs[i], Dst: g.Dsts[i]}
		if !removed[e] {
			removed[e] = true
			removes = append(removes, e)
		}
	}
	for i := 0; i < n; i++ {
		d := &serve.Delta{RemoveEdges: removes[2*i : 2*i+2]}
		for len(d.AddEdges) < 4 {
			e := graph.Edge{Src: int32(rng.Intn(g.N)), Dst: int32(rng.Intn(g.N))}
			if !removed[e] {
				d.AddEdges = append(d.AddEdges, e)
			}
		}
		for j := 0; j < 3; j++ {
			row := make([]float32, serveFeatDim)
			for k := range row {
				row[k] = float32(rng.NormFloat64())
			}
			d.Features = append(d.Features, serve.FeatureUpdate{Node: int32(rng.Intn(g.N)), Row: row})
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// rebuild returns the graph and features after the given deltas, built
// from the original inputs alone, without the delta path: the original
// edges minus every removed pair, then the additions in order.
func rebuild(g *graph.Graph, feat *tensor.Tensor, deltas []*serve.Delta) (*graph.Graph, *tensor.Tensor, error) {
	gone := map[graph.Edge]bool{}
	for _, d := range deltas {
		for _, e := range d.RemoveEdges {
			gone[e] = true
		}
	}
	var srcs, dsts []int32
	for i := 0; i < g.M; i++ {
		if !gone[graph.Edge{Src: g.Srcs[i], Dst: g.Dsts[i]}] {
			srcs, dsts = append(srcs, g.Srcs[i]), append(dsts, g.Dsts[i])
		}
	}
	f := feat.Clone()
	for _, d := range deltas {
		for _, e := range d.AddEdges {
			srcs, dsts = append(srcs, e.Src), append(dsts, e.Dst)
		}
		for _, u := range d.Features {
			copy(f.Row(int(u.Node)), u.Row)
		}
	}
	g2, err := graph.FromEdges(g.N, srcs, dsts)
	return g2, f, err
}

func roundServe(spec serveSpec) func(*roundCtx, any) error {
	return func(rc *roundCtx, input any) error {
		in := input.(*serveInputs)
		sz := rc.Sz
		_, _, callers, rate := spec.shape(sz)
		openDur := time.Duration(float64(rc.Budget) * openShare)
		closedDur := rc.Budget - openDur
		limit := time.Duration(sz.LimitMs * float64(time.Millisecond))
		rng := rand.New(rand.NewSource(rc.Seed ^ 0x6f70656e))
		sched := poissonSchedule(rng, rate, openDur)

		// Set-up: snapshot + normalizers, engine start, warm-up requests.
		root := rc.Rec.begin(0, "round")
		setupSpan := rc.Rec.begin(root, "setup")
		setupStart := time.Now()
		snap, err := serve.NewSnapshot(in.g, in.feat)
		if err != nil {
			return err
		}
		// The admission queue is deep enough to hold seconds of arrivals: a
		// stall of the host must show as latency, not as 429s, because no op
		// of a workload may fail for a reason that is not the program's.
		cfg := serve.Config{Spec: spec.model(rc), QueueDepth: 8192}
		if spec.embed {
			cfg.EmbedCache = true
		} else {
			cfg.FanOut, cfg.SampleSeed = []int{10, 5}, rc.Seed
		}
		e, err := serve.New(cfg, snap)
		if err != nil {
			return err
		}
		defer e.Close()
		h := serve.Handler(e)
		infer := func(i int) (bool, []byte) {
			code, resp := post(h, "/v1/infer", in.bodies[i%bodyPool])
			return code == http.StatusOK && len(resp) > 0, resp
		}
		for i := 0; i < warmRequests; i++ {
			ok, resp := infer(bodyPool - 1 - i)
			rc.ok(ok, "warm-up request: %s", resp)
		}
		setup := time.Since(setupStart)
		rc.Rec.end(setupSpan)

		// Open loop: Poisson arrivals at a fixed rate; the writer, when
		// there is one, runs beside both phases on one clock.
		if rc.Trace {
			obs.Reset()
		}
		kept := make([][]byte, (len(sched)+99)/100) // every 100th response, replayed afterwards
		var writes []deltaSample
		var writer sync.WaitGroup
		phaseStart := time.Now()
		if spec.embed {
			writer.Add(1)
			go func() {
				defer writer.Done()
				writes = runWriter(e, phaseStart, in.deltaSched, in.deltas)
			}()
		}
		openSpan := rc.Rec.begin(root, "open-loop")
		open := runOpenLoop(sched, func(i int) bool {
			ok, resp := infer(i)
			if i%100 == 0 {
				kept[i/100] = resp
			}
			return ok
		})
		rc.Rec.end(openSpan)
		ents, events := obs.Snapshot(), []obs.Event(nil)
		if rc.Trace {
			events, _ = obs.Events()
		}

		// Closed loop: parked callers, each waiting for its reply.
		closedSpan := rc.Rec.begin(root, "closed-loop")
		closed := runClosedLoop(callers, closedDur, func(seq int) bool {
			ok, _ := infer(len(sched) + seq)
			return ok
		})
		rc.Rec.end(closedSpan)
		writer.Wait()
		rss := peakRSSMB()
		rc.Rec.end(root)

		// An invalid phase still yields values, in case the runner has to
		// keep the round; it is reported as the round's outcome at the end.
		outcome := open.Outcome()
		for _, s := range open.Samples {
			rc.ok(s.OK, "open-loop request refused or in error")
		}
		rc.tally(closed.OK, closed.Failed)
		latencies := latenciesMs(open.Samples)
		rc.set("setup_s", setup.Seconds())
		rc.set("op_ms_p50", percentile(latencies, 50))
		rc.set("op_ms_p95", percentile(latencies, 95))
		rc.set("ops_per_s", closed.OpsPerSec())
		rc.set("peak_rss_mb", rss)
		var deltaMs []float64
		for _, s := range writes {
			rc.ok(s.Err == nil, "delta: %v", s.Err)
			deltaMs = append(deltaMs, ms(s.End.Sub(s.Due)))
		}
		if spec.embed {
			rc.set("delta_ms_p50", percentile(deltaMs, 50))
		}

		// Correctness, after the timed phases.
		if spec.embed {
			if err := checkFinalGeneration(rc, in, e); err != nil {
				return err
			}
		} else {
			for k, want := range kept {
				_, got := infer(100 * k)
				rc.ok(bytes.Equal(got, want), "request %d replayed serially answers differently", 100*k)
			}
		}

		if !rc.Trace {
			return outcome
		}
		met := e.Metrics()
		_, _, compiles := e.Cache().Stats()
		rc.set("serve.rejected_total", float64(met.RejectedQueueFull.Load()+met.RejectedDraining.Load()))
		rc.set("serve.plan_compiles", float64(compiles))
		rc.set("serve.gen_lateness_ms_p99", ms(open.LatenessP99))
		rc.set("serve.over_limit_total", float64(open.slowerThan(limit)))
		if spec.embed {
			embedLayers(rc, open, phaseStart, writes)
			return outcome
		}
		rc.set("serve.queue_wait_ms_p50", percentile(obsEventsMs(events, "serve", "queue-wait"), 50))
		rc.set("serve.infer_ms_p50", percentile(obsEventsMs(events, "serve", "infer"), 50))
		for _, en := range ents {
			if en.Cat == "serve" && en.Name == "batch" {
				rc.set("serve.batch_size_mean", ratio(float64(en.Counters["requests"]), float64(en.Count)))
			}
		}
		// The JSON layer: the same requests, one at a time, through the
		// handler and straight into the engine.
		var viaHTTP, direct []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			infer(i)
			t1 := time.Now()
			if _, err := e.Infer(context.Background(), in.nodes[i%bodyPool]); err != nil {
				return err
			}
			viaHTTP, direct = append(viaHTTP, ms(t1.Sub(t0))), append(direct, ms(time.Since(t1)))
		}
		rc.set("serve.http_overhead_ms", percentile(viaHTTP, 50)-percentile(direct, 50))
		return outcome
	}
}

// refEmbed draws the round's deltas and computes what every vertex must
// read once all of them are applied, without the delta path: it rebuilds
// the final graph and features from the original inputs and runs
// NewSnapshot + EnsureEmbeddings on them.
func refEmbed(rc *roundCtx, input any) error {
	in := input.(*serveInputs)
	in.deltaSched = fixedSchedule(rc.Sz.DeltaRate, rc.Budget)
	in.deltas = genDeltas(rc.Seed, in.g, len(in.deltaSched))
	g2, f2, err := rebuild(in.g, in.feat, in.deltas)
	if err != nil {
		return fmt.Errorf("rebuild final graph: %w", err)
	}
	snap, err := serve.NewSnapshot(g2, f2)
	if err != nil {
		return err
	}
	model, err := serve.BuildModel(embedSpec.model(rc), serveFeatDim, 1)
	if err != nil {
		return err
	}
	in.finalRows, err = snap.EnsureEmbeddings(model, &serve.ForwardEnv{Dev: device.New(device.V100), Pool: tensor.NewPool()})
	return err
}

// checkFinalGeneration reads every vertex's logits through the engine
// after the round's last delta and checks them against refEmbed's, bit
// for bit.
func checkFinalGeneration(rc *roundCtx, in *serveInputs, e *serve.Engine) error {
	want := in.finalRows
	for lo := 0; lo < in.g.N; lo += 4096 {
		hi := min(lo+4096, in.g.N)
		nodes := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, int32(v))
		}
		res, err := e.Infer(context.Background(), nodes)
		if err != nil {
			return fmt.Errorf("read final generation: %w", err)
		}
		rc.bitwise(fmt.Sprintf("final generation rows [%d,%d) against a rebuild from scratch", lo, hi),
			res.Logits.Data(), want.Data()[lo*want.Cols():hi*want.Cols()])
	}
	return nil
}

// embedLayers fills the delta-path rows of the ledger.
func embedLayers(rc *roundCtx, open *openLoopResult, phaseStart time.Time, writes []deltaSample) {
	var apply, recompute, frontier []float64
	var incremental, shared, chunks float64
	for _, s := range writes {
		if s.Err != nil {
			continue
		}
		st := s.Stats
		apply = append(apply, float64(st.ApplyNs)/1e6)
		recompute = append(recompute, float64(st.RecomputeNs)/1e6)
		frontier = append(frontier, float64(st.Frontier))
		if st.Recompute == "incremental" {
			incremental++
		}
		// A remapped chunk shares offsets and neighbours with its parent
		// and rewrites only edge ids; any removal remaps every chunk.
		shared += float64(st.SharedChunks + st.RemappedChunks)
		chunks += float64(st.SharedChunks + st.CopiedChunks + st.RemappedChunks)
	}
	rc.set("serve.delta_apply_ms", mean(apply))
	rc.set("serve.delta_recompute_ms", mean(recompute))
	rc.set("serve.delta_frontier_rows", mean(frontier))
	rc.set("serve.delta_incremental_ratio", ratio(incremental, float64(len(apply))))
	rc.set("graph.shared_chunk_ratio", ratio(shared, chunks))

	// A read is "during a delta" when its interval overlaps an ApplyDelta.
	var idle, during []float64
	for _, s := range open.Samples {
		from, to := phaseStart.Add(s.Start), phaseStart.Add(s.End)
		overlaps := false
		for _, w := range writes {
			if from.Before(w.End) && w.Start.Before(to) {
				overlaps = true
				break
			}
		}
		if overlaps {
			during = append(during, ms(s.Latency()))
		} else {
			idle = append(idle, ms(s.Latency()))
		}
	}
	rc.set("serve.read_ms_p50_idle", percentile(idle, 50))
	rc.set("serve.read_ms_p50_during_delta", percentile(during, 50))
}
