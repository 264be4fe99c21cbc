package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"seastar/internal/device"
	"seastar/internal/graph"
	"seastar/internal/obs"
	"seastar/internal/part"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// staticGen is the single generation a shard deployment serves today:
// fragments come from an immutable dataset load, and graph deltas are a
// full-graph-engine feature (the coordinator rejects them cleanly).
const staticGen = 1

// Worker holds one shard's fragment and steps the model over it on the
// coordinator's command. Step rounds serialize under mu (the exchange
// protocol is inherently round-ordered); gathers after the final round
// only read the settled logits and run under the read lock.
type Worker struct {
	frag   *part.Fragment
	model  *serve.Model
	env    *serve.ShardEnv
	widths []int // per round, the row width of its reply (serve.ShardWidths)
	// importFrom and exportTo are the peers this fragment imports mirror
	// rows from and exports owned rows to, ascending: the blocks of a step
	// request and of its reply.
	importFrom, exportTo []int

	mu sync.RWMutex
	sf *serve.ShardForward // the current run; logits are settled once it is Done
}

// NewWorker derives shard `index` of k from the full (graph, features):
// it computes the partition's owner table — the same one every worker and
// the coordinator compute — then builds its own fragment (the owned rows'
// degree-sorted in-CSR) and keeps only that fragment's rows. The full
// graph and feature matrix are not retained. prof is ignored: a worker
// charges no simulated device. The parameter stays only because
// benchmark/ still passes one; ROADMAP item 10(e) removes it.
func NewWorker(g *graph.Graph, feat *tensor.Tensor, spec serve.ModelSpec, k, index int, mode string, prof device.Profile) (*Worker, error) {
	if index < 0 || index >= k {
		return nil, fmt.Errorf("shard: index %d out of [0,%d)", index, k)
	}
	m, err := serve.BuildModel(spec, feat.Cols(), 1)
	if err != nil {
		return nil, err
	}
	widths, err := m.ShardWidths()
	if err != nil {
		return nil, err
	}
	owner, err := part.Owners(g, k, mode)
	if err != nil {
		return nil, err
	}
	f := part.NewFragment(g, owner, k, index)
	w := &Worker{
		frag:   f,
		model:  m,
		env:    serve.NewShardEnv(f, feat, tensor.NewPool()),
		widths: widths,
	}
	for t := range k {
		if len(f.ImportFrom[t]) > 0 {
			w.importFrom = append(w.importFrom, t)
		}
		if len(f.ExportTo[t]) > 0 {
			w.exportTo = append(w.exportTo, t)
		}
	}
	return w, nil
}

// Frag exposes the worker's fragment (tests, stats).
func (w *Worker) Frag() *part.Fragment { return w.frag }

// blocks pairs the current run's exchanged tensors with the rows of each
// peer in peers that table names: a step request's imports (ImportFrom)
// or its reply's exports (ExportTo).
func (w *Worker) blocks(peers []int, table [][]int32) []rowBlock {
	ts := w.sf.Exchanged()
	if ts == nil {
		return nil
	}
	out := make([]rowBlock, len(peers))
	for i, t := range peers {
		out[i] = rowBlock{peer: t, ts: ts, at: table[t]}
	}
	return out
}

// step serves one exchange round. Its header is checked against what the
// fragment implies before any payload byte is read, and the body is capped
// at exactly the size it announces. Round 1 always resets the run — the
// cold-start path and the coordinator's recovery path after a partial
// sync — handing the previous run's storage back to the pool first. A
// repeat of the last completed round re-serves its exports from rows that
// have not changed since (an idempotent retry) without reading the body;
// the next round streams its mirror blocks straight into the rows; any
// other round is a sequence error.
func (w *Worker) step(rw http.ResponseWriter, r *http.Request) error {
	h, err := readHeader(r.Body)
	if err != nil {
		return err
	}
	if h.gen != staticGen {
		return fmt.Errorf("shard: generation %d unknown (worker serves %d)", h.gen, staticGen)
	}
	if h.round < 1 || h.round > len(w.widths) {
		return fmt.Errorf("shard: round %d out of [1,%d]", h.round, len(w.widths))
	}
	want := header{gen: staticGen, round: h.round}
	rest := 0
	if h.round > 1 {
		want.width, want.blocks = w.widths[h.round-2], len(w.importFrom)
		for _, t := range w.importFrom {
			rest += blockHeaderSize + 4*want.width*len(w.frag.ImportFrom[t])
		}
	}
	if err := h.expect(want); err != nil {
		return err
	}
	body, err := capBody(rw, r, headerSize, int64(headerSize+rest))
	if err != nil {
		return err
	}

	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	have := 0
	if w.sf != nil {
		have = w.sf.Round()
	}
	switch {
	case h.round == have: // a retry: re-serve the exports below
	case h.round == 1:
		if err := expectEnd(body); err != nil {
			return err
		}
		if w.sf != nil {
			w.sf.Release()
			w.sf = nil
		}
		sf, err := serve.NewShardForward(w.model, w.env)
		if err != nil {
			return err
		}
		w.sf = sf
		if err := sf.StepShard(); err != nil {
			return err
		}
	case h.round == have+1:
		if err := readBlocks(body, want.width, w.blocks(w.importFrom, w.frag.ImportFrom)); err != nil {
			return err
		}
		if err := expectEnd(body); err != nil {
			return err
		}
		if err := w.sf.StepShard(); err != nil {
			return err
		}
	default:
		return &seqError{round: h.round, have: have}
	}

	done := w.sf.Round()
	exports := w.blocks(w.exportTo, w.frag.ExportTo)
	serveFrame(rw, header{gen: staticGen, round: done, width: w.widths[done-1], done: w.sf.Done(), blocks: len(exports)}, exports)
	if obs.Enabled() {
		obs.Observe("shard", fmt.Sprintf("w%d/step", w.frag.Shard), time.Since(start))
	}
	return nil
}

// seqError marks an out-of-order round request (409 on the wire): the
// coordinator restarts sync from round 1 when it sees one.
type seqError struct{ round, have int }

// Error names the round asked for and the one the worker is at.
func (e *seqError) Error() string {
	return fmt.Sprintf("shard: round %d out of sequence (worker at %d; restart from round 1)", e.round, e.have)
}

// gather answers final logit rows for owned vertices, streamed from the
// settled logits.
func (w *Worker) gather(rw http.ResponseWriter, r *http.Request) error {
	body, err := capBody(rw, r, 0, maxNodeFrame(w.frag.Owned))
	if err != nil {
		return err
	}
	nodes, err := readNodes(body, w.frag.Shard, w.frag.Owned)
	if err != nil {
		return err
	}
	if err := expectEnd(body); err != nil {
		return err
	}
	start := time.Now()
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.sf == nil || !w.sf.Done() {
		return &seqError{round: 0, have: 0}
	}
	logits, err := w.sf.Logits()
	if err != nil {
		return err
	}
	for i, v := range nodes { // global ids become local rows in place
		if v < 0 || int(v) >= len(w.frag.LocalOf) {
			return fmt.Errorf("shard: node %d out of range [0,%d)", v, len(w.frag.LocalOf))
		}
		l := w.frag.LocalOf[v] - 1
		if l < 0 || int(l) >= w.frag.Owned {
			return fmt.Errorf("shard: node %d not owned by shard %d", v, w.frag.Shard)
		}
		nodes[i] = l
	}
	serveFrame(rw, header{gen: staticGen, round: len(w.widths), width: logits.Cols(), done: true, blocks: 1},
		[]rowBlock{{peer: w.frag.Shard, ts: []*tensor.Tensor{logits}, at: nodes}})
	if obs.Enabled() {
		obs.Observe("shard", fmt.Sprintf("w%d/gather", w.frag.Shard), time.Since(start))
		obs.Add("shard", fmt.Sprintf("w%d/gather", w.frag.Shard), "rows", int64(len(nodes)))
	}
	return nil
}

// capBody caps r's body, of which read bytes have been read, at the size
// bytes its frame may have: a body that says it is longer is refused
// before a payload byte is read, one that turns out longer as soon as it
// does.
func capBody(rw http.ResponseWriter, r *http.Request, read, size int64) (io.Reader, error) {
	if r.ContentLength > size {
		return nil, &http.MaxBytesError{Limit: size}
	}
	return http.MaxBytesReader(rw, r.Body, size-read), nil
}

// Handler is the worker's HTTP surface:
//
//	POST /v1/shard/step    one exchange round (coordinator-driven), frames
//	POST /v1/shard/gather  final logit rows for owned vertices, frames
//	GET  /v1/shard/info    fragment shape (JSON)
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text (obs counters)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	frames := func(serve func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
		return func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(rw, "POST only", http.StatusMethodNotAllowed)
				return
			}
			if err := serve(rw, r); err != nil {
				http.Error(rw, err.Error(), workerStatus(err))
			}
		}
	}
	mux.HandleFunc("/v1/shard/step", frames(w.step))
	mux.HandleFunc("/v1/shard/gather", frames(w.gather))
	mux.HandleFunc("/v1/shard/info", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, infoResponse{
			Shard: w.frag.Shard, Shards: w.frag.K,
			Arch: w.model.Spec.Arch, Rounds: len(w.widths),
			Owned: w.frag.Owned, Mirrors: w.frag.Mirrors(),
			Edges: w.frag.G.M, N: len(w.frag.LocalOf), Gen: staticGen,
		})
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WritePrometheus(rw)
	})
	return mux
}

// workerStatus maps a step or gather error to its status: 409 for a
// round out of sequence, 413 for a body past what its frame announced, 400
// for anything else wrong with the request.
func workerStatus(err error) int {
	var seq *seqError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &seq):
		return http.StatusConflict
	case errors.As(err, &tooLarge), errors.Is(err, errOversize):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}
