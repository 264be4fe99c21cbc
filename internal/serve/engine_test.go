package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/obs"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// panicCount reads seastar_serve_panics_total as /metrics reports it.
func panicCount() (n int64) {
	var sb strings.Builder
	serve.WritePanics(&sb)
	fmt.Sscanf(sb.String(), "# TYPE seastar_serve_panics_total counter\nseastar_serve_panics_total %d", &n)
	return n
}

func snapFor(t *testing.T, name string, scale float64, seed int64) *serve.Snapshot {
	t.Helper()
	ds, err := datasets.Load(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(ds.G, ds.Feat)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func gcnSpec(classes int) serve.ModelSpec {
	return serve.ModelSpec{Arch: "gcn", Hidden: 16, Classes: classes, Seed: 7}
}

// groundTruth computes the serial full-graph logits for spec on snap,
// bypassing the engine entirely.
func groundTruth(t *testing.T, spec serve.ModelSpec, snap *serve.Snapshot) *tensor.Tensor {
	t.Helper()
	m, err := serve.BuildModel(spec, snap.Feat.Cols(), snap.G.NumEdgeTypes)
	if err != nil {
		t.Fatal(err)
	}
	env := &serve.ForwardEnv{G: snap.G, Feat: snap.Feat}
	serve.NormsFor(spec.Arch, snap, snap.G, env)
	out, err := m.Forward(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTensorBits(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if math.Float32bits(a.At1(i)) != math.Float32bits(b.At1(i)) {
			return false
		}
	}
	return true
}

// TestPlanCacheSingleflight drives the cache directly: 64 goroutines race
// on one cold key and the build function must run exactly once, with
// every caller observing the same model.
func TestPlanCacheSingleflight(t *testing.T) {
	pc := serve.NewPlanCache()
	var builds atomic.Int64
	want := &serve.Model{}
	key := serve.PlanKey{Spec: "gcn/test", InDim: 8, NumRel: 1}

	var wg sync.WaitGroup
	got := make([]*serve.Model, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := pc.Get(key, func() (*serve.Model, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want exactly 1", n)
	}
	for i, m := range got {
		if m != want {
			t.Fatalf("caller %d got a different model", i)
		}
	}
	_, _, compiles := pc.Stats()
	if compiles != 1 {
		t.Fatalf("compiles counter = %d, want 1", compiles)
	}

	// A distinct key builds independently; a failed build stays cached.
	bad := serve.PlanKey{Spec: "gcn/test", InDim: 16, NumRel: 1}
	wantErr := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, err := pc.Get(bad, func() (*serve.Model, error) {
			builds.Add(1)
			return nil, wantErr
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("want cached build error, got %v", err)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("failed key rebuilt: %d total builds, want 2", n)
	}
}

// TestColdStartSingleCompile is the tentpole acceptance check: 64
// concurrent requests against a cold engine trigger exactly one
// compilation and all succeed with identical bytes.
func TestColdStartSingleCompile(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7), Workers: 8}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	nodes := []int32{0, 5, 17, 33}
	results := make([]*serve.Result, 64)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Infer(context.Background(), nodes)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	_, _, compiles := eng.Cache().Stats()
	if compiles != 1 {
		t.Fatalf("%d compilations for one (model, graph) key, want exactly 1", compiles)
	}
	for i := 1; i < 64; i++ {
		if !sameTensorBits(results[0].Logits, results[i].Logits) {
			t.Fatalf("request %d logits differ from request 0", i)
		}
	}
	want := tensor.GatherRows(groundTruth(t, gcnSpec(7), snap), nodes)
	if !sameTensorBits(results[0].Logits, want) {
		t.Fatal("concurrent result differs from serial ground truth")
	}
}

// TestConcurrentMatchesSerial issues a fixed request mix concurrently and
// serially against identically configured engines; every response must be
// byte-identical.
func TestConcurrentMatchesSerial(t *testing.T) {
	for _, mode := range []struct {
		name   string
		fanOut []int
	}{
		{"full-graph", nil},
		{"sampled", []int{4, 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			snap := snapFor(t, "cora", 0.1, 1)
			cfg := serve.Config{Spec: gcnSpec(7), Workers: 8, FanOut: mode.fanOut}
			rng := rand.New(rand.NewSource(99))
			reqs := make([][]int32, 32)
			for i := range reqs {
				n := 1 + rng.Intn(5)
				reqs[i] = make([]int32, n)
				for j := range reqs[i] {
					reqs[i][j] = int32(rng.Intn(snap.G.N))
				}
			}

			run := func(concurrent bool) []*tensor.Tensor {
				eng, err := serve.New(cfg, snap)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				out := make([]*tensor.Tensor, len(reqs))
				if concurrent {
					var wg sync.WaitGroup
					for i := range reqs {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							res, err := eng.Infer(context.Background(), reqs[i])
							if err != nil {
								t.Error(err)
								return
							}
							out[i] = res.Logits
						}(i)
					}
					wg.Wait()
				} else {
					for i := range reqs {
						res, err := eng.Infer(context.Background(), reqs[i])
						if err != nil {
							t.Fatal(err)
						}
						out[i] = res.Logits
					}
				}
				return out
			}

			serial := run(false)
			conc := run(true)
			if t.Failed() {
				t.FailNow()
			}
			for i := range reqs {
				if !sameTensorBits(serial[i], conc[i]) {
					t.Fatalf("request %d: concurrent logits differ from serial", i)
				}
			}
		})
	}
}

// TestQueueFullBackpressure floods a deliberately tiny queue: overload
// must surface as ErrQueueFull, never as a hung or dropped request. The
// one worker is busy for milliseconds (the first batch compiles the plan),
// the batcher holds one request while it waits for that slot, the queue
// holds one more, and the rest of the 100 arrive meanwhile.
func TestQueueFullBackpressure(t *testing.T) {
	snap := snapFor(t, "cora", 0.25, 1)
	eng, err := serve.New(serve.Config{
		Spec:       gcnSpec(7),
		QueueDepth: 1,
		MaxBatch:   2,
		Workers:    1,
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const total = 100
	var served, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Infer(context.Background(), []int32{0})
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, serve.ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served.Load()+rejected.Load() != total {
		t.Fatalf("served %d + rejected %d != %d", served.Load(), rejected.Load(), total)
	}
	if rejected.Load() == 0 {
		t.Fatal("queue of depth 1 under 100 concurrent requests rejected nothing")
	}
	if served.Load() == 0 {
		t.Fatal("no request was served at all")
	}
	m := eng.Metrics()
	if m.RejectedQueueFull.Load() != rejected.Load() {
		t.Fatalf("metrics rejected=%d, observed %d", m.RejectedQueueFull.Load(), rejected.Load())
	}
}

// TestGracefulDrain closes the engine while requests are in flight: every
// admitted request must still be answered, later ones refused with
// ErrDraining, and no engine goroutine may outlive Close.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	snap := snapFor(t, "cora", 0.1, 1)
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7), Workers: 4}, snap)
	if err != nil {
		t.Fatal(err)
	}

	const total = 24
	var answered, drained atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Infer(context.Background(), []int32{1, 2})
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, serve.ErrDraining):
				drained.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Let some requests get admitted, then drain.
	for i := 0; i < 200 && eng.Metrics().Admitted.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	wg.Wait()

	if answered.Load()+drained.Load() != total {
		t.Fatalf("answered %d + drained %d != %d (dropped responses)", answered.Load(), drained.Load(), total)
	}
	if got := eng.Metrics().Admitted.Load(); got != answered.Load() {
		t.Fatalf("%d admitted but %d answered", got, answered.Load())
	}
	if _, err := eng.Infer(context.Background(), []int32{0}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-Close Infer: got %v, want ErrDraining", err)
	}
	eng.Close() // idempotent

	// The batcher and all workers must be gone.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, n)
	}
}

// TestSwapIsolation swaps snapshots while requests run; every response
// must byte-match one snapshot's ground truth — never a blend of two.
func TestSwapIsolation(t *testing.T) {
	snapA := snapFor(t, "cora", 0.1, 1)
	snapB := snapFor(t, "cora", 0.1, 2)
	if snapA.Fingerprint() == snapB.Fingerprint() {
		t.Fatal("test snapshots collide")
	}
	spec := gcnSpec(7)
	truthA := groundTruth(t, spec, snapA)
	truthB := groundTruth(t, spec, snapB)

	eng, err := serve.New(serve.Config{Spec: spec, Workers: 8}, snapA)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	n := snapA.G.N
	if snapB.G.N < n {
		n = snapB.G.N
	}
	nodes := []int32{0, 3, int32(n - 1)}
	wantA := tensor.GatherRows(truthA, nodes)
	wantB := tensor.GatherRows(truthB, nodes)

	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		snaps := []*serve.Snapshot{snapB, snapA}
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			if err := eng.SwapGraph(snaps[i%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, err := eng.Infer(context.Background(), nodes)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameTensorBits(res.Logits, wantA) && !sameTensorBits(res.Logits, wantB) {
					t.Error("response matches neither snapshot's ground truth (torn read across swap)")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopSwap)
	swapWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Two fingerprints were served → at most two compilations.
	_, _, compiles := eng.Cache().Stats()
	if compiles < 1 || compiles > 2 {
		t.Fatalf("compiles = %d, want 1 or 2", compiles)
	}
}

// TestSampledDeterminism: the same request sampled twice must take the
// same subgraph and produce the same bytes, regardless of batching.
func TestSampledDeterminism(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7), FanOut: []int{3, 3}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	nodes := []int32{4, 9, 25}
	first, err := eng.Infer(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if first.Logits.Rows() != len(nodes) || first.Logits.Cols() != 7 {
		t.Fatalf("logits shape [%d,%d], want [%d,7]", first.Logits.Rows(), first.Logits.Cols(), len(nodes))
	}
	for i := 0; i < 5; i++ {
		again, err := eng.Infer(context.Background(), nodes)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensorBits(first.Logits, again.Logits) {
			t.Fatalf("repeat %d of the same request produced different bytes", i)
		}
	}
}

// TestAllArchitecturesServe smoke-tests every supported model end to end.
func TestAllArchitecturesServe(t *testing.T) {
	for _, tc := range []struct {
		arch    string
		dataset string
	}{
		{"gcn", "cora"},
		{"gat", "cora"},
		{"appnp", "cora"},
		{"rgcn", "aifb"},
	} {
		t.Run(tc.arch, func(t *testing.T) {
			snap := snapFor(t, tc.dataset, 0.05, 1)
			spec := serve.ModelSpec{Arch: tc.arch, Hidden: 8, Classes: 4, Alpha: 0.1, K: 3, Seed: 5}
			eng, err := serve.New(serve.Config{Spec: spec}, snap)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			res, err := eng.Infer(context.Background(), []int32{0, 1, 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Logits.Rows() != 3 || res.Logits.Cols() != 4 {
				t.Fatalf("logits shape [%d,%d], want [3,4]", res.Logits.Rows(), res.Logits.Cols())
			}
			for i := 0; i < res.Logits.Size(); i++ {
				if v := float64(res.Logits.At1(i)); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite logit %v at %d", v, i)
				}
			}
			if len(res.Classes) != 3 {
				t.Fatalf("%d argmax classes, want 3", len(res.Classes))
			}
		})
	}
}

// TestRejectsInvalidConfigs covers config validation paths.
func TestRejectsInvalidConfigs(t *testing.T) {
	snap := snapFor(t, "cora", 0.05, 1)
	if _, err := serve.New(serve.Config{
		Spec:   serve.ModelSpec{Arch: "rgcn", Hidden: 8, Classes: 4},
		FanOut: []int{4},
	}, snapFor(t, "aifb", 0.05, 1)); err == nil {
		t.Fatal("sampled rgcn must be rejected")
	}
	if _, err := serve.New(serve.Config{Spec: serve.ModelSpec{Arch: "rgcn", Hidden: 8, Classes: 4}}, snap); err == nil {
		t.Fatal("rgcn on a homogeneous snapshot must be rejected")
	}
	if _, err := serve.New(serve.Config{Spec: serve.ModelSpec{Arch: "tgn", Hidden: 8, Classes: 4}}, snap); err == nil {
		t.Fatal("unknown arch must be rejected")
	}
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7)}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Infer(context.Background(), []int32{int32(snap.G.N)}); err == nil {
		t.Fatal("out-of-range node must fail")
	}
	if _, err := eng.Infer(context.Background(), nil); err == nil {
		t.Fatal("empty node list must fail")
	}
}

// TestHTTPEndpoints exercises the full HTTP surface against a live
// in-process server.
func TestHTTPEndpoints(t *testing.T) {
	snap := snapFor(t, "cora", 0.1, 1)
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7)}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(serve.Handler(eng))
	defer srv.Close()

	post := func(path, body string) (*http.Response, string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}
	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	resp, body := post("/v1/infer", `{"nodes":[0,1,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d %s", resp.StatusCode, body)
	}
	var ir struct {
		Nodes   []int32     `json:"nodes"`
		Logits  [][]float32 `json:"logits"`
		Classes []int       `json:"classes"`
	}
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Logits) != 3 || len(ir.Logits[0]) != 7 || len(ir.Classes) != 3 {
		t.Fatalf("unexpected infer payload: %s", body)
	}

	if resp, body = post("/v1/infer", `{"nodes":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/infer", `{"nodes":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty nodes: %d %s", resp.StatusCode, body)
	}
	// A body past its cap is refused with 413 before it is held in memory,
	// and the server answers the next request as before.
	if resp, body = post("/v1/infer", `{"nodes":[0],"pad":"`+strings.Repeat("x", 1<<20)+`"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized infer body: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/graph", `{"dataset":"cora","pad":"`+strings.Repeat("x", 4<<10)+`"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized graph body: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/infer", `{"nodes":[0,1,2]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer after oversized bodies: %d %s", resp.StatusCode, body)
	}
	if resp, _ = get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	_, metrics := get("/metrics")
	for _, want := range []string{
		"seastar_serve_plan_cache_compiles_total 1",
		"seastar_serve_requests_completed_total",
		"seastar_serve_infer_latency_seconds_bucket",
		"seastar_serve_queue_depth",
		"seastar_serve_pool_hits_total",
		"seastar_serve_pool_bytes_out 0",
		"seastar_serve_pool_bytes_idle",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// The whole text of one Write on fixed observations, bucket bounds
	// (100µs–10s) and boundary placement included. The panic counter is
	// process-wide, so its line carries whatever this process has seen.
	m := serve.NewMetrics()
	m.Received.Add(5)
	m.Admitted.Add(4)
	m.RejectedQueueFull.Add(1)
	m.Completed.Add(3)
	m.QueueDepth.Add(1)
	m.Batches.Add(2)
	m.BatchedReqs.Add(3)
	m.Deltas.Add(1)
	m.DeltasIncremental.Add(1)
	m.Generation.Add(7)
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 20 * time.Second} {
		m.QueueWait.Observe(d)
	}
	m.InferLatency.Observe(time.Millisecond)
	m.TotalLatency.Observe(3 * time.Millisecond)
	var sb strings.Builder
	m.Write(&sb, nil, nil)
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(string(golden), "seastar_serve_panics_total 0\n",
		fmt.Sprintf("seastar_serve_panics_total %d\n", panicCount()), 1)
	if sb.String() != want {
		t.Fatalf("metrics exposition changed:\n%s\nwant:\n%s", sb.String(), want)
	}

	// /debug/trace serves the obs spans alone: with tracing off there is
	// nothing to show, however many batches ran. With it on, a request's
	// queue-wait and kernel spans are recorded before it is answered.
	obs.Reset()
	if resp, body = get("/debug/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with obs off: %d %s", resp.StatusCode, body)
	}
	obs.Enable()
	defer obs.Reset()
	defer obs.Disable()
	if resp, body = post("/v1/infer", `{"nodes":[0,1,2]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer with obs on: %d %s", resp.StatusCode, body)
	}
	resp, body = get("/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, body)
	}
	var tr struct {
		TraceEvents []struct {
			PID int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace is not a non-empty Chrome trace (%v): %s", err, body)
	}
	for i, ev := range tr.TraceEvents {
		if ev.PID != obs.ChromePID {
			t.Fatalf("trace event %d has pid %d, want obs.ChromePID %d", i, ev.PID, obs.ChromePID)
		}
	}

	oldFP := fmt.Sprintf("%016x", snap.Fingerprint())
	resp, body = post("/v1/graph", `{"dataset":"cora","scale":0.1,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph swap: %d %s", resp.StatusCode, body)
	}
	var gr struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal([]byte(body), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Fingerprint == oldFP {
		t.Fatal("fingerprint unchanged after swap")
	}
	if resp, body = post("/v1/infer", `{"nodes":[0]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer after swap: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/graph", `{"dataset":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset: %d %s", resp.StatusCode, body)
	}

	eng.Close()
	if resp, _ = get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	if resp, _ = post("/v1/infer", `{"nodes":[0]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d", resp.StatusCode)
	}
}

// TestRecoverPanics injects a panicking handler behind serve.Recover: the
// request answers 500, seastar_serve_panics_total counts it on a server's
// /metrics, the same process keeps answering, and net/http's deliberate
// abort is not counted.
func TestRecoverPanics(t *testing.T) {
	snap := snapFor(t, "cora", 0.05, 1)
	eng, err := serve.New(serve.Config{Spec: gcnSpec(7)}, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("injected") })
	mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.Handle("/", serve.Handler(eng))
	srv := httptest.NewServer(serve.Recover(mux))
	defer srv.Close()

	before := panicCount()
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	if _, err := http.Get(srv.URL + "/abort"); err == nil {
		t.Fatal("an aborted handler must drop the connection, not answer")
	}
	if got := panicCount(); got != before+1 {
		t.Fatalf("panics counter %d after one panic, want %d", got, before+1)
	}
	resp, err = http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(`{"nodes":[0,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer after a panic: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("seastar_serve_panics_total %d\n", before+1); !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestSnapshotFingerprint pins fingerprint semantics: identical builds
// agree, structural or feature changes differ.
func TestSnapshotFingerprint(t *testing.T) {
	a1 := snapFor(t, "cora", 0.05, 1)
	a2 := snapFor(t, "cora", 0.05, 1)
	b := snapFor(t, "cora", 0.05, 2)
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Fatal("identical datasets produced different fingerprints")
	}
	if a1.Fingerprint() == b.Fingerprint() {
		t.Fatal("different datasets produced equal fingerprints")
	}
	if _, err := serve.NewSnapshot(a1.G, tensor.New(3, 4)); err == nil {
		t.Fatal("feature/vertex mismatch must be rejected")
	}
}
