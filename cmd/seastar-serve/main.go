// Command seastar-serve runs the concurrent inference server: compiled
// vertex-centric plans behind a plan cache, micro-batched requests over a
// bounded admission queue, and copy-on-write graph snapshot swaps.
//
//	seastar-serve -model gcn -dataset cora -addr :8080
//	curl -s localhost:8080/v1/infer -d '{"nodes":[0,1,2]}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight requests
// finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/device"
	"seastar/internal/obs"
	"seastar/internal/serve"
	"seastar/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "gcn", "gcn|gat|appnp|rgcn")
	dataset := flag.String("dataset", "cora", "dataset to serve at startup")
	hidden := flag.Int("hidden", 16, "hidden size")
	alpha := flag.Float64("alpha", 0.1, "APPNP teleport probability")
	k := flag.Int("k", 10, "APPNP propagation steps")
	scale := flag.Float64("scale", 0, "dataset instantiation scale (0 = default)")
	seed := flag.Int64("seed", 1, "dataset + weight seed")
	queue := flag.Int("queue", 256, "admission queue depth")
	batch := flag.Int("batch", 8, "max requests per micro-batch in sampled (-fanout) and -embed-cache modes; per-batch full-graph mode takes the whole queue (a batch is whatever is queued when a worker frees, never waited for)")
	workers := flag.Int("workers", 4, "concurrent batch workers")
	fanout := flag.String("fanout", "", "comma-separated per-layer fan-out for sampled inference (empty = full graph)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request deadline")
	obsOn := flag.Bool("obs", false, "enable span tracing: per-request span trees on /debug/trace, obs counters on /metrics")
	embedCache := flag.Bool("embed-cache", false, "cache full-graph embeddings per snapshot; graph deltas patch them incrementally")
	frontierLimit := flag.Float64("delta-frontier", 0, "dirty-frontier fraction above which a delta falls back to a full recompute (0 = default 0.05)")
	shardIndex := flag.Int("shard-index", -1, "run as shard worker with this index (requires -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shard count for -shard-index / -coordinator")
	partition := flag.String("partition", "greedy", "vertex-cut partition mode for sharded modes (greedy|range)")
	coordinator := flag.Bool("coordinator", false, "run as shard coordinator over -shard-workers")
	shardWorkers := flag.String("shard-workers", "", "comma-separated worker base URLs for -coordinator")
	flag.Parse()

	if *obsOn {
		obs.Enable()
	}

	s := *scale
	if s == 0 {
		s = datasets.DefaultScale(*dataset)
	}
	ds, err := datasets.Load(*dataset, s, *seed)
	if err != nil {
		fatal(err)
	}
	// Sharded modes bypass the engine: a worker serves one vertex-cut
	// fragment's step/gather endpoints; a coordinator fronts N workers
	// with the standard /v1/infer contract. Every process re-derives the
	// same deterministic partition from (dataset, mode, count), so no
	// fragment ever crosses the wire.
	if *shardIndex >= 0 || *coordinator {
		spec := serve.ModelSpec{
			Arch: *model, Hidden: *hidden, Classes: ds.NumClasses,
			Alpha: float32(*alpha), K: *k, Seed: *seed,
		}
		var h http.Handler
		switch {
		case *shardIndex >= 0 && *coordinator:
			fatal(fmt.Errorf("-shard-index and -coordinator are exclusive"))
		case *shardIndex >= 0:
			if *shardCount < 1 {
				fatal(fmt.Errorf("-shard-index needs -shard-count"))
			}
			// A worker charges no simulated device; NewWorker ignores the profile.
			w, err := shard.NewWorker(ds.G, ds.Feat, spec, *shardCount, *shardIndex, *partition, device.Profile{})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("seastar-serve: shard worker %d/%d on %s (owned=%d mirrors=%d edges=%d) listening on %s\n",
				*shardIndex, *shardCount, *dataset, w.Frag().Owned, w.Frag().Mirrors(), w.Frag().G.M, *addr)
			h = w.Handler()
		default:
			urls := split(*shardWorkers)
			if len(urls) == 0 {
				fatal(fmt.Errorf("-coordinator needs -shard-workers"))
			}
			c, err := shard.NewCoordinator(shard.CoordinatorConfig{
				Spec: spec, Workers: urls, Mode: *partition,
			}, ds.G)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("seastar-serve: coordinator over %d workers on %s (n=%d m=%d) listening on %s\n",
				len(urls), *dataset, ds.G.N, ds.G.M, *addr)
			h = c.Handler()
		}
		srv := newServer(*addr, h)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() {
			<-ctx.Done()
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(shCtx)
		}()
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		return
	}

	snap, err := serve.NewSnapshot(ds.G, ds.Feat)
	if err != nil {
		fatal(err)
	}

	cfg := serve.Config{
		Spec: serve.ModelSpec{
			Arch:    *model,
			Hidden:  *hidden,
			Classes: ds.NumClasses,
			Alpha:   float32(*alpha),
			K:       *k,
			Seed:    *seed,
		},
		QueueDepth:     *queue,
		MaxBatch:       *batch,
		Workers:        *workers,
		DefaultTimeout: *timeout,

		EmbedCache:         *embedCache,
		DeltaFrontierLimit: *frontierLimit,
	}
	if *fanout != "" {
		for _, part := range strings.Split(*fanout, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -fanout %q: %v", *fanout, err))
			}
			cfg.FanOut = append(cfg.FanOut, f)
		}
	}

	eng, err := serve.New(cfg, snap)
	if err != nil {
		fatal(err)
	}

	srv := newServer(*addr, serve.Handler(eng))
	done := make(chan struct{})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "seastar-serve: draining...")
		eng.Close() // stop admitting, finish in-flight
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}()

	fmt.Printf("seastar-serve: %s on %s (n=%d m=%d classes=%d) listening on %s\n",
		*model, *dataset, snap.NumVertices(), snap.NumEdges(), ds.NumClasses, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seastar-serve:", err)
	os.Exit(1)
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Connection limits of every listener: a client that stalls while sending
// headers or a body, stops reading its response, or parks an idle
// keep-alive, is dropped instead of holding a connection forever. The read
// limit covers the largest body the handlers accept (a 64 MiB delta) at a
// few MB/s. The write limit runs from the end of the request headers to
// the end of the response, so it also covers the slowest handler — a
// /v1/graph swap that generates and degree-sorts a whole dataset, or a
// delta that falls back to a full forward — and then the largest response
// (the logits of a 1 MiB node list, tens of MB of JSON) at a few MB/s.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 60 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		WriteTimeout: writeTimeout, IdleTimeout: idleTimeout}
}
