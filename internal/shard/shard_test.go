package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

func testSpec(arch string) serve.ModelSpec {
	return serve.ModelSpec{Arch: arch, Hidden: 16, Classes: 4, Seed: 7, Alpha: 0.1, K: 4}
}

func testGraph(t testing.TB, n int) (*graph.Graph, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := graph.ZipfDegree(rng, n, 8, 1.0)
	return g, tensor.Randn(rng, 1, g.N, 16)
}

// deploy spins up k in-process workers plus a coordinator over them and
// returns the coordinator (programmatic) and its HTTP server.
func deploy(t testing.TB, g *graph.Graph, feat *tensor.Tensor, spec serve.ModelSpec, k int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	urls := make([]string, k)
	servers := make([]*httptest.Server, k)
	for s := 0; s < k; s++ {
		w, err := NewWorker(g, feat, spec, k, s, "greedy", device.V100)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		servers[s] = srv
		urls[s] = srv.URL
	}
	c, err := NewCoordinator(CoordinatorConfig{Spec: spec, Workers: urls, Mode: "greedy"}, g)
	if err != nil {
		t.Fatal(err)
	}
	return c, servers
}

func fullForward(t testing.TB, g *graph.Graph, feat *tensor.Tensor, spec serve.ModelSpec) *tensor.Tensor {
	t.Helper()
	m, err := serve.BuildModel(spec, feat.Cols(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.NewSnapshot(g, feat)
	if err != nil {
		t.Fatal(err)
	}
	env := &serve.ForwardEnv{
		G: snap.Graph(), Feat: snap.Features(),
		Dev: device.New(device.V100), Pool: tensor.NewPool(),
	}
	serve.NormsFor(spec.Arch, snap, env.G, env)
	want, err := m.Forward(env)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEndToEndBitwise drives real HTTP workers through the coordinator
// and checks every vertex's logits equal the single-process forward bit
// for bit, for each supported arch × shard count.
func TestEndToEndBitwise(t *testing.T) {
	g, feat := testGraph(t, 3000)
	for _, arch := range []string{"gcn", "gat", "appnp"} {
		spec := testSpec(arch)
		want := fullForward(t, g, feat, spec)
		for _, k := range []int{2, 4} {
			c, _ := deploy(t, g, feat, spec, k)
			// Batch through all vertices in chunks, mixing shard owners.
			for lo := 0; lo < g.N; lo += 512 {
				hi := lo + 512
				if hi > g.N {
					hi = g.N
				}
				nodes := make([]int32, 0, hi-lo)
				for v := lo; v < hi; v++ {
					nodes = append(nodes, int32(v))
				}
				res, err := c.Infer(context.Background(), nodes)
				if err != nil {
					t.Fatalf("%s k=%d: %v", arch, k, err)
				}
				for i, v := range nodes {
					for j := 0; j < want.Cols(); j++ {
						if math.Float32bits(res.Logits.At(i, j)) != math.Float32bits(want.At(int(v), j)) {
							t.Fatalf("%s k=%d vertex %d col %d: sharded %g vs full %g",
								arch, k, v, j, res.Logits.At(i, j), want.At(int(v), j))
						}
					}
				}
			}
		}
	}
}

// TestHTTPContract exercises the coordinator's /v1/infer over the wire
// and checks the JSON shape matches the single-process server's.
func TestHTTPContract(t *testing.T) {
	g, feat := testGraph(t, 500)
	spec := testSpec("gcn")
	c, _ := deploy(t, g, feat, spec, 2)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	body, _ := json.Marshal(map[string]any{"nodes": []int32{0, 7, 42}})
	resp, err := http.Post(front.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Nodes   []int32     `json:"nodes"`
		Logits  [][]float32 `json:"logits"`
		Classes []int       `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 3 || len(out.Logits) != 3 || len(out.Classes) != 3 {
		t.Fatalf("shape: %d nodes, %d logits, %d classes", len(out.Nodes), len(out.Logits), len(out.Classes))
	}
	if len(out.Logits[0]) != spec.Classes {
		t.Fatalf("width %d", len(out.Logits[0]))
	}

	// Bad node → 400, not 503.
	body, _ = json.Marshal(map[string]any{"nodes": []int32{int32(g.N)}})
	resp2, err := http.Post(front.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status %d", resp2.StatusCode)
	}

	// Topology endpoint names every worker, with the rounds the model
	// needs and the wire traffic the infer above caused.
	resp3, err := http.Get(front.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var topo struct {
		Shards  int `json:"shards"`
		Rounds  int `json:"rounds"`
		Workers []struct {
			Shard   int   `json:"shard"`
			Owned   int   `json:"owned"`
			BytesTx int64 `json:"bytes_tx"`
			BytesRx int64 `json:"bytes_rx"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 2 || len(topo.Workers) != 2 || topo.Rounds != 2 {
		t.Fatalf("topology: %+v", topo)
	}
	owned := 0
	for _, w := range topo.Workers {
		owned += w.Owned
		if w.BytesTx == 0 || w.BytesRx == 0 {
			t.Fatalf("shard %d: no wire traffic recorded after an infer: %+v", w.Shard, w)
		}
	}
	if owned != g.N {
		t.Fatalf("masters cover %d of %d vertices", owned, g.N)
	}

	// Deltas are a full-graph-engine feature: clean refusal.
	resp4, err := http.Post(front.URL+"/v1/graph/delta", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotImplemented {
		t.Fatalf("delta on coordinator: status %d", resp4.StatusCode)
	}
}

// TestWorkerSequence checks the worker-side protocol: out-of-order
// rounds answer 409, a repeated round idempotently re-serves its cached
// exports, and round 1 resets a finished run.
func TestWorkerSequence(t *testing.T) {
	g, feat := testGraph(t, 300)
	w, err := NewWorker(g, feat, testSpec("gcn"), 2, 0, "greedy", device.V100)
	if err != nil {
		t.Fatal(err)
	}

	// Round 2 before round 1 → sequence error.
	if _, err := w.step(&stepRequest{Gen: staticGen, Round: 2}); err == nil {
		t.Fatal("round 2 accepted cold")
	} else if _, ok := err.(*seqError); !ok {
		t.Fatalf("want seqError, got %v", err)
	}
	// Gather before any round → sequence error.
	if _, err := w.gather(&gatherRequest{Gen: staticGen, Nodes: []int32{0}}); err == nil {
		t.Fatal("gather accepted cold")
	}

	r1, err := w.step(&stepRequest{Gen: staticGen, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent retry of round 1 re-serves identical exports.
	r1b, err := w.step(&stepRequest{Gen: staticGen, Round: 1, Mirrors: nil})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r1.Exports {
		if !bytes.Equal(v, r1b.Exports[k]) {
			t.Fatalf("retry of round 1 changed exports for peer %s", k)
		}
	}

	// Finish, then round 1 again resets cleanly.
	mirrors := map[string][]byte{}
	for _, rows := range w.frag.ImportFrom {
		_ = rows // coordinator would fill these; zero mirrors still steps
	}
	if _, err := w.step(&stepRequest{Gen: staticGen, Round: 2, Mirrors: mirrors}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.gather(&gatherRequest{Gen: staticGen, Nodes: []int32{w.frag.Locals[0]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.step(&stepRequest{Gen: staticGen, Round: 1}); err != nil {
		t.Fatalf("round-1 reset: %v", err)
	}

	// Unknown generation and unowned node reject cleanly.
	if _, err := w.step(&stepRequest{Gen: 99, Round: 1}); err == nil {
		t.Fatal("bad generation accepted")
	}
}

// TestKilledWorker kills one worker mid-deployment: in-flight and
// subsequent requests must answer 503 with a Retry-After header — never
// hang, never return wrong data — and rescheduling the worker via
// SetWorker must restore bitwise-correct service.
func TestKilledWorker(t *testing.T) {
	g, feat := testGraph(t, 1000)
	spec := testSpec("gcn")
	want := fullForward(t, g, feat, spec)
	c, servers := deploy(t, g, feat, spec, 4)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	nodes := []int32{1, 2, 3, 5, 8, 13, 21, 34}
	infer := func() (*http.Response, error) {
		body, _ := json.Marshal(map[string]any{"nodes": nodes})
		return http.Post(front.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	}

	resp, err := infer()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}

	// Kill shard 2 and force a resync so the sync path must touch it.
	servers[2].Close()
	c.SetWorker(2, servers[2].URL) // same (dead) URL; clears synced

	resp, err = infer()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("killed worker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Reschedule shard 2 on a fresh worker; service recovers bitwise.
	w2, err := NewWorker(g, feat, spec, 4, 2, "greedy", device.V100)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(w2.Handler())
	defer srv2.Close()
	c.SetWorker(2, srv2.URL)

	res, err := c.Infer(context.Background(), nodes)
	if err != nil {
		t.Fatalf("post-recovery: %v", err)
	}
	for i, v := range nodes {
		for j := 0; j < want.Cols(); j++ {
			if math.Float32bits(res.Logits.At(i, j)) != math.Float32bits(want.At(int(v), j)) {
				t.Fatalf("post-recovery vertex %d col %d: %g vs %g",
					v, j, res.Logits.At(i, j), want.At(int(v), j))
			}
		}
	}
}

// TestWorkerRestartInPlace kills a worker and brings a cold replacement
// up on the SAME address without telling the coordinator (the
// restart-under-a-stable-DNS-name deployment). The coordinator still
// believes the fleet is synced, so the first request's gather hits a
// worker with no logits — that must surface as a retryable 503 that
// also drops the synced flag, and the next request must resync from
// round 1 and answer bitwise-correctly.
func TestWorkerRestartInPlace(t *testing.T) {
	g, feat := testGraph(t, 1000)
	spec := testSpec("gcn")
	want := fullForward(t, g, feat, spec)
	c, servers := deploy(t, g, feat, spec, 3)

	nodes := []int32{0, 7, 42, 99, 500, 999}
	if _, err := c.Infer(context.Background(), nodes); err != nil {
		t.Fatalf("warm infer: %v", err)
	}

	// Restart shard 1 cold on the same listener address.
	addr := servers[1].Listener.Addr().String()
	servers[1].Close()
	w1, err := NewWorker(g, feat, spec, 3, 1, "greedy", device.V100)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: w1.Handler()}}
	srv.Start()
	defer srv.Close()

	// First request gathers from the cold worker: retryable failure.
	if _, err := c.Infer(context.Background(), nodes); err == nil {
		t.Fatal("infer against cold restarted worker succeeded without a resync")
	} else if ue := (*unavailableError)(nil); !errors.As(err, &ue) {
		t.Fatalf("cold-worker infer error %v is not retryable", err)
	}

	// Second request must resync the fleet and answer correctly.
	res, err := c.Infer(context.Background(), nodes)
	if err != nil {
		t.Fatalf("post-restart infer: %v", err)
	}
	for i, v := range nodes {
		for j := 0; j < want.Cols(); j++ {
			if math.Float32bits(res.Logits.At(i, j)) != math.Float32bits(want.At(int(v), j)) {
				t.Fatalf("post-restart vertex %d col %d: %g vs %g",
					v, j, res.Logits.At(i, j), want.At(int(v), j))
			}
		}
	}
}

// TestRaceSoak is the -race soak `make race-shard` runs: concurrent
// inference batches against a live 3-shard deployment, with one worker
// killed and rescheduled mid-soak. Every 200 answer must be bitwise
// correct; failures must be 503s.
func TestRaceSoak(t *testing.T) {
	g, feat := testGraph(t, 800)
	spec := testSpec("gcn")
	want := fullForward(t, g, feat, spec)
	c, servers := deploy(t, g, feat, spec, 3)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)))
			for iter := 0; iter < 30; iter++ {
				nodes := make([]int32, 1+rng.Intn(16))
				for i := range nodes {
					nodes[i] = int32(rng.Intn(g.N))
				}
				body, _ := json.Marshal(map[string]any{"nodes": nodes})
				resp, err := http.Post(front.URL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out struct {
					Logits [][]float32 `json:"logits"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						errs <- decErr
						return
					}
					for i, v := range nodes {
						for j := range out.Logits[i] {
							if math.Float32bits(out.Logits[i][j]) != math.Float32bits(want.At(int(v), j)) {
								errs <- fmt.Errorf("client %d: vertex %d col %d wrong under soak", ci, v, j)
								return
							}
						}
					}
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						errs <- fmt.Errorf("client %d: 503 without Retry-After", ci)
						return
					}
				default:
					errs <- fmt.Errorf("client %d: status %d", ci, resp.StatusCode)
					return
				}
			}
		}(ci)
	}

	// Fault injector: kill shard 1 mid-soak, then reschedule it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		servers[1].Close()
		c.SetWorker(1, servers[1].URL)
		w1, err := NewWorker(g, feat, spec, 3, 1, "greedy", device.V100)
		if err != nil {
			errs <- err
			return
		}
		srv1 := httptest.NewServer(w1.Handler())
		t.Cleanup(srv1.Close)
		c.SetWorker(1, srv1.URL)
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
