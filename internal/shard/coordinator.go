package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/part"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// CoordinatorConfig configures the shard-aware front end.
type CoordinatorConfig struct {
	Spec serve.ModelSpec
	// Workers are the shard worker base URLs, one per shard, index-aligned
	// with the partition's shard numbering.
	Workers []string
	// Mode is the partition mode ("" = greedy); it must match the workers'.
	Mode string
	// Client performs worker RPCs (default: 30s-timeout client).
	Client *http.Client
	// RetryAfter is the Retry-After hint on 503 responses (default 1s).
	RetryAfter time.Duration
}

// shardStats is one worker's coordinator-side counters.
type shardStats struct {
	Steps    atomic.Int64
	Gathers  atomic.Int64
	Errors   atomic.Int64
	BytesTx  atomic.Int64
	BytesRx  atomic.Int64
	StepNs   atomic.Int64
	GatherNs atomic.Int64
}

// Coordinator scatters /v1/infer to the owning shards and drives the
// per-layer mirror exchange that precedes the first answer. It holds the
// owner table (the same deterministic one the workers compute) but never
// a fragment: exchanged row blocks are opaque to it — both endpoints of
// every block agree on row order by construction, so the coordinator only
// checks each block's size against the flow the owner table implies and
// routes shard s's export-to-t block into shard t's next round request.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	k      int
	n      int
	widths []int // per round, the row width of its replies (serve.ShardWidthsForSpec)
	owner  []int32
	owned  []int     // vertices mastered per shard
	blocks [][]block // blocks[s]: what shard s exports each round, by ascending peer

	urlMu sync.RWMutex
	urls  []string

	syncMu sync.Mutex
	synced atomic.Bool

	stats []shardStats
	// failures counts 503-answered requests (shard failure or partial
	// sync), the coordinator's own health signal.
	failures atomic.Int64
	infers   atomic.Int64
}

// NewCoordinator computes the partition's owner table exactly as the
// workers do, and from it the rows each shard exports each round, and
// returns a coordinator over cfg.Workers. The graph is not retained.
func NewCoordinator(cfg CoordinatorConfig, g *graph.Graph) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker URL")
	}
	widths, err := serve.ShardWidthsForSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	k := len(cfg.Workers)
	owner, err := part.Owners(g, k, cfg.Mode)
	if err != nil {
		return nil, err
	}
	owned := make([]int, k)
	for _, s := range owner {
		owned[s]++
	}
	blocks := make([][]block, k)
	for s, flows := range part.Flows(g, owner, k) {
		for t, rows := range flows {
			if rows > 0 {
				blocks[s] = append(blocks[s], block{peer: t, rows: rows})
			}
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Coordinator{
		cfg:    cfg,
		client: client,
		k:      k,
		n:      g.N,
		widths: widths,
		owner:  owner,
		owned:  owned,
		blocks: blocks,
		urls:   append([]string(nil), cfg.Workers...),
		stats:  make([]shardStats, k),
	}, nil
}

// SetWorker replaces shard i's URL (re-scheduling a failed worker) and
// clears the synced flag so the next request re-drives the exchange.
func (c *Coordinator) SetWorker(i int, url string) {
	c.urlMu.Lock()
	c.urls[i] = url
	c.urlMu.Unlock()
	c.synced.Store(false)
}

func (c *Coordinator) url(i int) string {
	c.urlMu.RLock()
	defer c.urlMu.RUnlock()
	return c.urls[i]
}

// post sends one frame to worker s and returns its 200 reply, whose body
// the caller reads and closes; any other status is an error carrying the
// start of the worker's message. Both directions count into s's traffic.
func (c *Coordinator) post(ctx context.Context, s int, path string, frame net.Buffers) (*http.Response, error) {
	st := &c.stats[s]
	var size int64
	for _, b := range frame {
		size += int64(len(b))
	}
	st.BytesTx.Add(size)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(s)+path, nil)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", frameType)
	hreq.ContentLength = size
	hreq.GetBody = func() (io.ReadCloser, error) {
		b := append(net.Buffers(nil), frame...) // reading consumes the slice it reads
		return io.NopCloser(&b), nil
	}
	hreq.Body, _ = hreq.GetBody()
	hresp, err := c.client.Do(hreq)
	if err != nil {
		st.Errors.Add(1)
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	hresp.Body = counted{hresp.Body, &st.BytesRx}
	if hresp.StatusCode != http.StatusOK {
		defer hresp.Body.Close()
		msg := make([]byte, 512)
		n, _ := io.ReadFull(hresp.Body, msg)
		st.Errors.Add(1)
		return nil, fmt.Errorf("shard %d: %s: %s", s, hresp.Status, bytes.TrimSpace(msg[:n]))
	}
	return hresp, nil
}

// counted adds every byte read through it to n.
type counted struct {
	io.ReadCloser
	n *atomic.Int64
}

// Read reads from the wrapped body and counts what it got.
func (c counted) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// step drives round r on worker s: it sends the blocks s imports and
// returns the blocks s exports, by ascending peer.
func (c *Coordinator) step(ctx context.Context, s, r int, imports []relay) ([]relay, error) {
	h := header{gen: staticGen, round: r, blocks: len(imports)}
	if r > 1 {
		h.width = c.widths[r-2]
	}
	hresp, err := c.post(ctx, s, "/v1/shard/step", relayFrame(h, imports))
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	want := header{gen: staticGen, round: r, width: c.widths[r-1], done: r == len(c.widths)}
	var exports []block
	if !want.done {
		exports = c.blocks[s]
	}
	want.blocks = len(exports)
	relays, err := readRelays(hresp.Body, want, exports)
	if err != nil {
		c.stats[s].Errors.Add(1)
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	return relays, nil
}

// ensureSynced drives the full exchange — rounds × (step every worker,
// reroute exports into next round's imports) — exactly once per cold or
// failed state. Round 1 resets every worker, so a fleet left half-synced
// by a crash converges again deterministically.
func (c *Coordinator) ensureSynced(ctx context.Context) error {
	if c.synced.Load() {
		return nil
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if c.synced.Load() {
		return nil
	}
	start := time.Now()
	// imports[t] is what shard t imports in the upcoming round, by
	// ascending source: each block as its exporter sent it, re-addressed.
	imports := make([][]relay, c.k)
	for r := 1; r <= len(c.widths); r++ {
		type stepRes struct {
			s       int
			exports []relay
			err     error
		}
		results := make(chan stepRes, c.k)
		for s := 0; s < c.k; s++ {
			go func(s int) {
				st := &c.stats[s]
				t0 := time.Now()
				exports, err := c.step(ctx, s, r, imports[s])
				st.Steps.Add(1)
				st.StepNs.Add(time.Since(t0).Nanoseconds())
				results <- stepRes{s, exports, err}
			}(s)
		}
		exports := make([][]relay, c.k)
		for i := 0; i < c.k; i++ {
			res := <-results
			if res.err != nil {
				// Remaining sends land in the buffered channel; the fleet
				// is left mid-round and the next sync restarts from round 1.
				return fmt.Errorf("sync round %d: %w", r, res.err)
			}
			exports[res.s] = res.exports
		}
		imports = make([][]relay, c.k)
		for s, blocks := range exports {
			for _, b := range blocks {
				t := b.peer
				b.peer = s
				imports[t] = append(imports[t], b)
			}
		}
	}
	c.synced.Store(true)
	if obs.Enabled() {
		obs.ObserveEvent("shard", "sync", start, time.Since(start), 0)
	}
	return nil
}

// gather fetches the logit rows of nodes, all owned by shard s, straight
// into rows at of into.
func (c *Coordinator) gather(ctx context.Context, s int, nodes []int32, into *tensor.Tensor, at []int32) error {
	hresp, err := c.post(ctx, s, "/v1/shard/gather", nodeFrame(s, nodes))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	err = readRows(hresp.Body, header{gen: staticGen, round: len(c.widths), width: into.Cols(), done: true, blocks: 1},
		[]rowBlock{{peer: s, ts: []*tensor.Tensor{into}, at: at}})
	if err != nil {
		c.stats[s].Errors.Add(1)
		return fmt.Errorf("shard %d: %w", s, err)
	}
	return nil
}

// Infer answers one inference request by gathering final logits from the
// owning shards. It is the programmatic form of POST /v1/infer.
func (c *Coordinator) Infer(ctx context.Context, nodes []int32) (*serve.Result, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: no nodes requested")
	}
	for _, v := range nodes {
		if v < 0 || int(v) >= c.n {
			return nil, fmt.Errorf("shard: node %d out of range [0,%d)", v, c.n)
		}
	}
	if err := c.ensureSynced(ctx); err != nil {
		return nil, &unavailableError{err}
	}

	// Group nodes by owning shard, remembering positions.
	byShard := make(map[int][]int32)
	pos := make(map[int][]int32)
	for i, v := range nodes {
		s := int(c.owner[v])
		byShard[s] = append(byShard[s], v)
		pos[s] = append(pos[s], int32(i))
	}

	// Every shard's reply lands in its own rows of logits.
	logits := tensor.New(len(nodes), c.widths[len(c.widths)-1])
	errs := make(chan error, len(byShard))
	for s, vs := range byShard {
		go func(s int, vs []int32) {
			st := &c.stats[s]
			t0 := time.Now()
			err := c.gather(ctx, s, vs, logits, pos[s])
			st.Gathers.Add(1)
			st.GatherNs.Add(time.Since(t0).Nanoseconds())
			errs <- err
		}(s, vs)
	}
	var failed error
	for range byShard {
		if err := <-errs; err != nil && failed == nil {
			failed = err
		}
	}
	if failed != nil {
		// A gather can fail because a worker died and came back cold on
		// the same URL (its logits are gone even though the fleet looked
		// synced). Drop the synced flag so the next request resyncs from
		// round 1 instead of gathering from a cold worker forever.
		c.synced.Store(false)
		return nil, &unavailableError{failed}
	}
	return &serve.Result{
		Nodes:   nodes,
		Logits:  logits,
		Classes: tensor.ArgMaxRows(logits),
		Gen:     staticGen,
	}, nil
}

// unavailableError wraps worker failures that should answer 503 with a
// Retry-After hint instead of hanging or 500ing.
type unavailableError struct{ err error }

// Error is the worker failure's message.
func (e *unavailableError) Error() string { return e.err.Error() }

// Unwrap returns the worker failure.
func (e *unavailableError) Unwrap() error { return e.err }

// TotalBytes sums coordinator-side wire traffic across all shards
// (request bodies out, response bodies in) — the bench's measured
// cross-shard traffic counter.
func (c *Coordinator) TotalBytes() (tx, rx int64) {
	for s := range c.stats {
		tx += c.stats[s].BytesTx.Load()
		rx += c.stats[s].BytesRx.Load()
	}
	return tx, rx
}

// topology is the /v1/shards payload.
type topology struct {
	Shards   int          `json:"shards"`
	Rounds   int          `json:"rounds"`
	Arch     string       `json:"arch"`
	N        int          `json:"n"`
	Synced   bool         `json:"synced"`
	Infers   int64        `json:"infers"`
	Failures int64        `json:"failures"`
	Workers  []shardStat_ `json:"workers"`
}

type shardStat_ struct {
	Shard      int    `json:"shard"`
	URL        string `json:"url"`
	Owned      int    `json:"owned"`
	Steps      int64  `json:"steps"`
	Gathers    int64  `json:"gathers"`
	Errors     int64  `json:"errors"`
	BytesTx    int64  `json:"bytes_tx"`
	BytesRx    int64  `json:"bytes_rx"`
	StepNs     int64  `json:"step_ns"`
	GatherNs   int64  `json:"gather_ns"`
	GatherAvgU int64  `json:"gather_avg_us"`
}

func (c *Coordinator) topology() topology {
	t := topology{
		Shards: c.k, Rounds: len(c.widths), Arch: c.cfg.Spec.Arch, N: c.n,
		Synced: c.synced.Load(), Infers: c.infers.Load(), Failures: c.failures.Load(),
	}
	for s := 0; s < c.k; s++ {
		st := &c.stats[s]
		row := shardStat_{
			Shard: s, URL: c.url(s), Owned: c.owned[s],
			Steps: st.Steps.Load(), Gathers: st.Gathers.Load(), Errors: st.Errors.Load(),
			BytesTx: st.BytesTx.Load(), BytesRx: st.BytesRx.Load(),
			StepNs: st.StepNs.Load(), GatherNs: st.GatherNs.Load(),
		}
		if row.Gathers > 0 {
			row.GatherAvgU = row.GatherNs / row.Gathers / 1e3
		}
		t.Workers = append(t.Workers, row)
	}
	return t
}

// Handler is the coordinator's HTTP surface:
//
//	POST /v1/infer   same contract as the single-process server
//	GET  /v1/shards  topology + per-shard latency/traffic counters
//	GET  /healthz    liveness
//	GET  /metrics    Prometheus text: per-shard counters + obs spans
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(rw http.ResponseWriter, r *http.Request) {
		serve.ServeInfer(rw, r, func(ctx context.Context, nodes []int32) (*serve.Result, error) {
			c.infers.Add(1)
			start := time.Now()
			res, err := c.Infer(ctx, nodes)
			if err == nil && obs.Enabled() {
				obs.ObserveEvent("shard", "infer", start, time.Since(start), 0)
			}
			return res, err
		}, func(err error) {
			status := http.StatusBadRequest
			if errors.As(err, new(*unavailableError)) {
				c.failures.Add(1)
				rw.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.RetryAfter/time.Second)))
				status = http.StatusServiceUnavailable
			}
			http.Error(rw, err.Error(), status)
		})
	})
	mux.HandleFunc("/v1/shards", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, c.topology())
	})
	mux.HandleFunc("/v1/graph/delta", func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "shard: graph deltas are not supported in sharded mode (fragments are static); apply deltas to a full-graph engine", http.StatusNotImplemented)
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.writePrometheus(rw)
		obs.WritePrometheus(rw)
	})
	return mux
}

func (c *Coordinator) writePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE seastar_shard_infers counter\nseastar_shard_infers %d\n", c.infers.Load())
	fmt.Fprintf(w, "# TYPE seastar_shard_failures counter\nseastar_shard_failures %d\n", c.failures.Load())
	for s := 0; s < c.k; s++ {
		st := &c.stats[s]
		fmt.Fprintf(w, "seastar_shard_steps{shard=\"%d\"} %d\n", s, st.Steps.Load())
		fmt.Fprintf(w, "seastar_shard_gathers{shard=\"%d\"} %d\n", s, st.Gathers.Load())
		fmt.Fprintf(w, "seastar_shard_errors{shard=\"%d\"} %d\n", s, st.Errors.Load())
		fmt.Fprintf(w, "seastar_shard_bytes_tx{shard=\"%d\"} %d\n", s, st.BytesTx.Load())
		fmt.Fprintf(w, "seastar_shard_bytes_rx{shard=\"%d\"} %d\n", s, st.BytesRx.Load())
		fmt.Fprintf(w, "seastar_shard_step_ns{shard=\"%d\"} %d\n", s, st.StepNs.Load())
		fmt.Fprintf(w, "seastar_shard_gather_ns{shard=\"%d\"} %d\n", s, st.GatherNs.Load())
	}
}
