package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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
		Pool: tensor.NewPool(),
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

	// The worker RPCs take frames from an unauthenticated port: a header
	// that disagrees with the fragment or a bad CRC answers 400 before
	// anything is allocated for what it claims, a body past the size its
	// header announces 413.
	w, err := NewWorker(g, feat, spec, 2, 0, "greedy", device.V100)
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	frame := func(h header, rl []relay) []byte { return bytes.Join(relayFrame(h, rl), nil) }
	if got := post(h, "/v1/shard/step", frame(header{gen: staticGen, round: 1}, nil)); got.Code != http.StatusOK {
		t.Fatalf("round 1: status %d (%s)", got.Code, got.Body)
	}
	width := w.widths[0]
	round2 := header{gen: staticGen, round: 2, width: width, blocks: len(w.importFrom)}
	mirrors := func(edit func(i int, b *block)) []relay { // zero rows from every peer with mirrors here
		var rl []relay
		for i, p := range w.importFrom {
			payload := make([]byte, 4*width*len(w.frag.ImportFrom[p]))
			b := block{peer: p, rows: len(w.frag.ImportFrom[p]), crc: crc32.Checksum(payload, castagnoli)}
			if edit != nil {
				edit(i, &b)
			}
			rl = append(rl, relay{b, payload})
		}
		return rl
	}
	huge := bytes.Join([][]byte{gatherHeader.encode(), block{peer: 0, rows: 1 << 30}.encode(), {0, 0, 0, 0}}, nil)
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		status     int
	}{
		{"bad magic", "/v1/shard/step", bytes.NewReader(append([]byte("JSON"), frame(round2, mirrors(nil))[4:]...)), http.StatusBadRequest},
		{"unknown generation", "/v1/shard/step", bytes.NewReader(frame(header{gen: 2, round: 2, width: width, blocks: round2.blocks}, mirrors(nil))), http.StatusBadRequest},
		{"width not the stage's", "/v1/shard/step", bytes.NewReader(frame(header{gen: staticGen, round: 2, width: width + 1, blocks: round2.blocks}, mirrors(nil))), http.StatusBadRequest},
		{"more blocks than peers", "/v1/shard/step", bytes.NewReader(frame(header{gen: staticGen, round: 2, width: width, blocks: 1 << 20}, mirrors(nil))), http.StatusBadRequest},
		{"rows not the peer's mirrors", "/v1/shard/step", bytes.NewReader(frame(round2, mirrors(func(_ int, b *block) { b.rows = 1 << 30 }))), http.StatusBadRequest},
		{"bad CRC", "/v1/shard/step", bytes.NewReader(frame(round2, mirrors(func(_ int, b *block) { b.crc ^= 1 }))), http.StatusBadRequest},
		{"declared oversize", "/v1/shard/step", bytes.NewReader(append(frame(round2, mirrors(nil)), 0)), http.StatusRequestEntityTooLarge},
		{"streamed oversize", "/v1/shard/step", io.MultiReader(bytes.NewReader(frame(round2, mirrors(nil))), strings.NewReader("x")), http.StatusRequestEntityTooLarge},
		{"gather beyond owned", "/v1/shard/gather", bytes.NewReader(huge), http.StatusBadRequest},
		{"gather oversize", "/v1/shard/gather", bytes.NewReader(append(bytes.Join(nodeFrame(0, w.frag.Locals[:1]), nil), 0)), http.StatusRequestEntityTooLarge},
	} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		if rw.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rw.Code, tc.status, rw.Body)
		}
	}
	if got := post(h, "/v1/shard/step", frame(round2, mirrors(nil))); got.Code != http.StatusOK {
		t.Fatalf("a good round 2 after the refusals: status %d (%s)", got.Code, got.Body)
	}

	// The coordinator refuses a reply frame whose declared size differs
	// from what the fragment implies: a retryable 503, never a relay.
	for _, field := range []struct {
		name string
		at   int
	}{{"width", 16}, {"rows", headerSize + 4}} {
		tampered := func(w *Worker) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				w.Handler().ServeHTTP(rec, r)
				reply := rec.Body.Bytes()
				if r.URL.Path == "/v1/shard/step" && len(reply) > headerSize+blockHeaderSize {
					le.PutUint32(reply[field.at:], le.Uint32(reply[field.at:])+1)
				}
				rw.WriteHeader(rec.Code)
				rw.Write(reply)
			})
		}
		urls := make([]string, 2)
		for s := range urls {
			ws, err := NewWorker(g, feat, spec, 2, s, "greedy", device.V100)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(tampered(ws))
			defer srv.Close()
			urls[s] = srv.URL
		}
		bad, err := NewCoordinator(CoordinatorConfig{Spec: spec, Workers: urls}, g)
		if err != nil {
			t.Fatal(err)
		}
		_, err = bad.Infer(context.Background(), []int32{0})
		if ue := (*unavailableError)(nil); !errors.As(err, &ue) || !strings.Contains(err.Error(), "want") {
			t.Errorf("reply with a tampered %s: %v, want a 503 naming the expected frame", field.name, err)
		}
	}
}

// exchange is one worker RPC as the coordinator sent and received it.
type exchange struct {
	host, path string
	req, reply []byte
}

// recorder is a RoundTripper that keeps every worker RPC's bodies.
type recorder struct {
	mu  sync.Mutex
	log []exchange
}

func (rec *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(reply))
	rec.mu.Lock()
	rec.log = append(rec.log, exchange{req.URL.Host, req.URL.Path, body, reply})
	rec.mu.Unlock()
	return resp, nil
}

// post sends body to one of w's frame endpoints in-process.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rw
}

// TestWorkerSequence drives one worker's round state machine over frames:
// random sequences of valid, stale- or unknown-generation, out-of-range,
// out-of-order, duplicated, truncated, bad-CRC and oversize rounds, plus
// gathers, each checked against a reference model of the protocol (200 /
// 400 / 409 / 413). Every 200 step must answer byte-identical exports to
// the clean sync's — a retried last round included — and after the storm
// a clean round-1 sync must serve logits ≡ the full forward, bit for bit.
func TestWorkerSequence(t *testing.T) {
	g, feat := testGraph(t, 400)
	spec := testSpec("appnp") // 4 rounds, three of them importing
	want := fullForward(t, g, feat, spec)
	workers := make([]*Worker, 2)
	urls := make([]string, 2)
	for s := range workers {
		w, err := NewWorker(g, feat, spec, 2, s, "greedy", device.V100)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		workers[s], urls[s] = w, srv.URL
	}
	rec := &recorder{}
	c, err := NewCoordinator(CoordinatorConfig{Spec: spec, Workers: urls, Client: &http.Client{Transport: rec}}, g)
	if err != nil {
		t.Fatal(err)
	}
	w := workers[0]
	var nodes []int32
	for _, v := range w.frag.Locals[:w.frag.Owned] {
		nodes = append(nodes, v)
	}
	if _, err := c.Infer(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	// The clean sync, as worker 0 saw it: rounds[r-1] is round r.
	var rounds []exchange
	var gather exchange
	for _, e := range rec.log {
		switch {
		case e.host != strings.TrimPrefix(urls[0], "http://"):
		case e.path == "/v1/shard/step":
			rounds = append(rounds, e)
		default:
			gather = e
		}
	}
	R := len(rounds)
	if R != 4 || gather.reply == nil {
		t.Fatalf("clean sync: %d rounds and gather %v on worker 0, want 4 and one", R, gather.reply != nil)
	}
	checkLogits := func(reply []byte) {
		t.Helper()
		got := tensor.New(len(nodes), spec.Classes)
		at := make([]int32, len(nodes))
		for i := range at {
			at[i] = int32(i)
		}
		if err := readRows(bytes.NewReader(reply), header{gen: staticGen, round: R, width: spec.Classes, done: true, blocks: 1},
			[]rowBlock{{peer: 0, ts: []*tensor.Tensor{got}, at: at}}); err != nil {
			t.Fatal(err)
		}
		for i, v := range nodes {
			for j := 0; j < spec.Classes; j++ {
				if math.Float32bits(got.At(i, j)) != math.Float32bits(want.At(int(v), j)) {
					t.Fatalf("vertex %d col %d: %g, full forward %g", v, j, got.At(i, j), want.At(int(v), j))
				}
			}
		}
	}
	checkLogits(gather.reply)

	const (
		valid = iota
		badGen
		badRound
		cutHeader
		cutPayload
		flipPayload
		flipCRC
		oversize
		doGather
		kinds
	)
	seen := map[int]int{}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		have := R // the clean sync left worker 0 done
		for op := 0; op < 150; op++ {
			kind := rng.Intn(kinds)
			r := 1 + rng.Intn(R)
			body := bytes.Clone(rounds[r-1].req)
			if kind == doGather {
				status, wantStatus := post(w.Handler(), "/v1/shard/gather", gather.req), http.StatusConflict
				if have == R {
					wantStatus = http.StatusOK
					if !bytes.Equal(status.Body.Bytes(), gather.reply) {
						t.Fatalf("seed %d op %d: gather answered different rows", seed, op)
					}
				}
				if status.Code != wantStatus {
					t.Fatalf("seed %d op %d: gather at round %d: status %d, want %d", seed, op, have, status.Code, wantStatus)
				}
				continue
			}
			payload := len(body) > headerSize
			switch {
			case kind == badGen:
				le.PutUint64(body[4:], uint64(rng.Intn(2)*2)) // 0 or 2
			case kind == badRound:
				le.PutUint32(body[12:], uint32(rng.Intn(2)*(R+1))) // 0 or R+1
			case kind == cutHeader:
				body = body[:rng.Intn(headerSize)]
			case kind == cutPayload && payload:
				body = body[:headerSize+rng.Intn(len(body)-headerSize)]
			case kind == flipPayload && payload:
				body[headerSize+blockHeaderSize+rng.Intn(len(body)-headerSize-blockHeaderSize)] ^= 1 << rng.Intn(8)
			case kind == flipCRC && payload:
				body[headerSize+8] ^= 1 << rng.Intn(8)
			case kind == oversize:
				body = append(body, 0)
			default:
				kind = valid
			}

			// The reference model.
			wantStatus, next := http.StatusOK, have
			switch {
			case kind == badGen || kind == badRound || kind == cutHeader:
				wantStatus = http.StatusBadRequest
			case kind == oversize:
				wantStatus = http.StatusRequestEntityTooLarge
			case r == have:
			case r == 1:
				next = 1
			case r != have+1:
				wantStatus = http.StatusConflict
			case kind != valid:
				wantStatus = http.StatusBadRequest
			default:
				next = r
			}
			got := post(w.Handler(), "/v1/shard/step", body)
			seen[got.Code]++
			if got.Code != wantStatus {
				t.Fatalf("seed %d op %d: round %d (kind %d) at round %d: status %d, want %d (%s)",
					seed, op, r, kind, have, got.Code, wantStatus, got.Body)
			}
			if wantStatus == http.StatusOK && !bytes.Equal(got.Body.Bytes(), rounds[r-1].reply) {
				t.Fatalf("seed %d op %d: round %d answered exports that differ from the clean sync's", seed, op, r)
			}
			have = next
		}
		// Whatever state the storm left: a clean sync serves the forward.
		for r, e := range rounds {
			if got := post(w.Handler(), "/v1/shard/step", e.req); got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), e.reply) {
				t.Fatalf("seed %d: clean round %d after the storm: status %d or different exports", seed, r+1, got.Code)
			}
		}
		got := post(w.Handler(), "/v1/shard/gather", gather.req)
		if got.Code != http.StatusOK {
			t.Fatalf("seed %d: gather after the storm: status %d", seed, got.Code)
		}
		checkLogits(got.Body.Bytes())
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge} {
		if seen[code] == 0 {
			t.Errorf("no step answered %d: the storm does not cover the protocol (%v)", code, seen)
		}
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
