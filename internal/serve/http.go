package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"seastar/internal/datasets"
	"seastar/internal/obs"
)

// Handler returns the engine's HTTP surface:
//
//	POST /v1/infer   {"nodes":[0,1,2],"timeout_ms":500} → logits + classes
//	POST /v1/graph   {"dataset":"cora","scale":0.5,"seed":7} → swap snapshot
//	POST /v1/graph/delta  {"parent_gen":1,"add_edges":[{"src":0,"dst":1}],...} → delta apply
//	GET  /healthz    liveness (503 while draining)
//	GET  /metrics    Prometheus text exposition
//	GET  /debug/trace  Chrome trace of the process's wall-clock obs spans,
//	                   one TID lane per batch (404 with obs tracing off)
//
// A handler panic answers 500 (Recover).
func Handler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) { handleInfer(e, w, r) })
	mux.HandleFunc("/v1/graph", func(w http.ResponseWriter, r *http.Request) { handleGraph(e, w, r) })
	mux.HandleFunc("/v1/graph/delta", func(w http.ResponseWriter, r *http.Request) { handleDelta(e, w, r) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e.Metrics().Write(w, e.Cache(), e.pool)
		obs.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		events := obs.ChromeEvents()
		if len(events) == 0 {
			http.Error(w, "no spans traced (tracing is off, or nothing has run yet)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
	})
	return Recover(mux)
}

// panics counts the handler panics Recover answered, process-wide.
var panics atomic.Int64

// WritePanics emits the panic counter in Prometheus text format.
func WritePanics(w io.Writer) {
	fmt.Fprintf(w, "# TYPE seastar_serve_panics_total counter\nseastar_serve_panics_total %d\n", panics.Load())
}

// Recover wraps every HTTP surface of the process (a server, a shard
// worker, a coordinator): a panicking handler answers 500, is counted in
// seastar_serve_panics_total and logged with its stack, and the process
// keeps serving. http.ErrAbortHandler, net/http's deliberate abort,
// passes through.
func Recover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			panics.Add(1)
			log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			http.Error(w, "internal error", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}

type inferRequest struct {
	Nodes     []int32 `json:"nodes"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

type inferResponse struct {
	Nodes   []int32     `json:"nodes"`
	Logits  [][]float32 `json:"logits"`
	Classes []int       `json:"classes"`
}

// Request body caps: a body past its cap answers 413 before it is held in
// memory. A delta carries whole feature rows, so its cap is the large one.
const (
	MaxInferBody = 1 << 20 // every /v1/infer, the shard coordinator's included
	maxGraphBody = 4 << 10
	maxDeltaBody = 64 << 20
)

// decodePost reads a POST's JSON body of at most limit bytes into v,
// answering 405, 413 or 400 itself when it cannot.
func decodePost(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body over %d bytes", limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return err == nil
}

func handleInfer(e *Engine, w http.ResponseWriter, r *http.Request) {
	ServeInfer(w, r, e.Infer, func(err error) { http.Error(w, err.Error(), statusFor(err)) })
}

// ServeInfer answers one POST /v1/infer — {"nodes":[0,1,2],"timeout_ms":500}
// → nodes, logits and classes — by calling infer under the request's
// deadline; fail answers infer's errors. It is the one implementation of
// the contract: the single-process server and the shard coordinator both
// serve it, body cap (MaxInferBody) included.
func ServeInfer(w http.ResponseWriter, r *http.Request, infer func(context.Context, []int32) (*Result, error), fail func(error)) {
	var req inferRequest
	if !decodePost(w, r, MaxInferBody, &req) {
		return
	}
	if len(req.Nodes) == 0 {
		http.Error(w, "bad request: no nodes", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := infer(ctx, req.Nodes)
	if err != nil {
		fail(err)
		return
	}
	// res.Logits is the request's own copy of its rows: encode it in place.
	resp := inferResponse{Nodes: res.Nodes, Classes: res.Classes, Logits: make([][]float32, res.Logits.Rows())}
	for i := range resp.Logits {
		resp.Logits[i] = res.Logits.Row(i)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStaleGeneration):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusBadRequest
	}
}

type graphRequest struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

type graphResponse struct {
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Gen         uint64 `json:"gen"`
}

func handleGraph(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req graphRequest
	if !decodePost(w, r, maxGraphBody, &req) {
		return
	}
	if req.Dataset == "" {
		http.Error(w, "bad request: dataset required", http.StatusBadRequest)
		return
	}
	if req.Scale <= 0 {
		req.Scale = datasets.DefaultScale(req.Dataset)
	}
	ds, err := datasets.Load(req.Dataset, req.Scale, req.Seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap, err := NewSnapshot(ds.G, ds.Feat)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := e.SwapGraph(snap); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(graphResponse{
		Fingerprint: fmt.Sprintf("%016x", snap.Fingerprint()),
		N:           snap.NumVertices(),
		M:           snap.NumEdges(),
		Gen:         e.Generation(),
	})
}

// deltaResponse is what a successful delta apply reports back: the new
// generation (the parent_gen the next delta must address), the child's
// shape and fingerprint, how big the dirty frontier was, and which
// recompute mode ran.
type deltaResponse struct {
	Gen          uint64 `json:"gen"`
	Fingerprint  string `json:"fingerprint"`
	N            int    `json:"n"`
	M            int    `json:"m"`
	Touched      int    `json:"touched"`
	Frontier     int    `json:"frontier"`
	Recompute    string `json:"recompute"`
	SharedChunks int    `json:"shared_chunks"`
	CopiedChunks int    `json:"copied_chunks"`
	SharedPages  int    `json:"shared_pages"`
	CopiedPages  int    `json:"copied_pages"`
	ApplyUS      int64  `json:"apply_us"`
	RecomputeUS  int64  `json:"recompute_us"`
}

// handleDelta applies one graph delta. A stale parent_gen answers 409
// Conflict with the error text carrying both generations, so clients can
// refetch /v1/graph's gen (or read the latest infer response) and rebase.
func handleDelta(e *Engine, w http.ResponseWriter, r *http.Request) {
	var d Delta
	if !decodePost(w, r, maxDeltaBody, &d) {
		return
	}
	st, err := e.ApplyDelta(&d)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(deltaResponse{
		Gen:          st.Gen,
		Fingerprint:  fmt.Sprintf("%016x", st.Fingerprint),
		N:            st.N,
		M:            st.M,
		Touched:      st.Touched,
		Frontier:     st.Frontier,
		Recompute:    st.Recompute,
		SharedChunks: st.SharedChunks,
		CopiedChunks: st.CopiedChunks,
		SharedPages:  st.SharedPages,
		CopiedPages:  st.CopiedPages,
		ApplyUS:      st.ApplyNs / 1e3,
		RecomputeUS:  st.RecomputeNs / 1e3,
	})
}
