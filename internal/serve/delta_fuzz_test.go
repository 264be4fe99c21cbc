package serve_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"seastar/internal/graph"
	"seastar/internal/serve"
)

// fuzzModel compiles the one model every fuzz iteration shares (the spec
// is fixed; compilation is the expensive part).
var fuzzModel = sync.OnceValues(func() (*serve.Model, error) {
	return serve.BuildModel(serve.ModelSpec{Arch: "gcn", Hidden: 8, Classes: 3, Seed: 3}, 8, 1)
})

// byteFeed drains the fuzz input as a bounded op stream.
type byteFeed struct {
	data []byte
	pos  int
}

func (b *byteFeed) next() (byte, bool) {
	if b.pos >= len(b.data) {
		return 0, false
	}
	v := b.data[b.pos]
	b.pos++
	return v, true
}

// deltaFromBytes decodes one valid delta against the mirror's current
// state, or nil when the feed is exhausted. Every construction is
// range-checked against the mirror so the delta is always applicable —
// the fuzzer explores delta *content*, not input validation (the error
// table covers that).
func deltaFromBytes(feed *byteFeed, m *deltaMirror) *serve.Delta {
	op, ok := feed.next()
	if !ok {
		return nil
	}
	d := &serve.Delta{}
	d.AddVertices = int(op % 4)
	removedV := map[int32]bool{}
	if b, ok := feed.next(); ok && b%3 == 0 && m.n > 8 {
		v := int32(int(b) % m.n)
		d.RemoveVertices = []int32{v}
		removedV[v] = true
	}
	if b, ok := feed.next(); ok {
		seen := map[graph.Edge]bool{}
		for k := int(b % 3); k > 0 && len(m.edges) > 0; k-- {
			lo, ok := feed.next()
			if !ok {
				break
			}
			hi, _ := feed.next()
			e := m.edges[(int(hi)<<8|int(lo))%len(m.edges)]
			if seen[e] || removedV[e.Src] || removedV[e.Dst] {
				continue
			}
			seen[e] = true
			d.RemoveEdges = append(d.RemoveEdges, e)
		}
	}
	newN := m.n + d.AddVertices
	if b, ok := feed.next(); ok {
		for k := 1 + int(b%4); k > 0; k-- {
			s, ok := feed.next()
			if !ok {
				break
			}
			t, ok := feed.next()
			if !ok {
				break
			}
			d.AddEdges = append(d.AddEdges, graph.Edge{
				Src: int32(int(s) % newN), Dst: int32(int(t) % newN),
			})
		}
	}
	if b, ok := feed.next(); ok {
		for k := int(b % 3); k > 0; k-- {
			node, ok := feed.next()
			if !ok {
				break
			}
			row := make([]float32, m.d)
			for j := range row {
				v, _ := feed.next()
				row[j] = float32(int8(v)) / 16
			}
			d.Features = append(d.Features, serve.FeatureUpdate{
				Node: int32(int(node) % newN), Row: row,
			})
		}
	}
	return d
}

// FuzzDeltaEquivalence is the differential delta fuzzer: an arbitrary
// byte string decodes to a stream of valid deltas; after each one, the
// structurally-shared child must be byte-identical to a rebuild from
// scratch (flattened CSRs, edge list) and its incrementally patched
// embeddings bitwise-equal to the full forward on the rebuilt graph. Each
// delta is also posted to a live engine's /v1/graph/delta, which must
// accept it and leave seastar_serve_panics_total alone.
func FuzzDeltaEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 7, 9, 3, 1, 2, 3, 4, 1, 5, 10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{0, 3, 0, 2, 200, 1, 100, 2, 2, 11, 12, 13, 14, 2, 9,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{3, 1, 1, 255, 255, 3, 55, 56, 57, 58, 59, 60, 1, 61,
		128, 129, 130, 131, 132, 133, 134, 135, 0, 2, 2, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		model, err := fuzzModel()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		mir := newDeltaMirror(rng, 60, 8, 240)
		snap, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.EnsureEmbeddings(model, &serve.ForwardEnv{}); err != nil {
			t.Fatal(err)
		}
		opt := &serve.DeltaOptions{Model: model, FrontierLimit: 1.0}
		live, err := serve.NewSnapshot(mir.graph(t), mir.featTensor())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := serve.New(serve.Config{Spec: model.Spec, EmbedCache: true}, live)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		h := serve.Handler(eng)
		panics := serve.Panics()

		feed := &byteFeed{data: data}
		for step := 0; step < 3; step++ {
			d := deltaFromBytes(feed, mir)
			if d == nil {
				break
			}
			child, st, err := serve.ApplyDelta(snap, d, opt)
			if err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
			d.ParentGen = uint64(step + 1)
			body, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/graph/delta", bytes.NewReader(body)))
			if rw.Code != http.StatusOK || serve.Panics() != panics {
				t.Fatalf("step %d: /v1/graph/delta answered %d (%s), panics %d → %d", step, rw.Code, rw.Body, panics, serve.Panics())
			}
			mir.apply(d)
			requireGraphEqual(t, child.Graph(), mir.graph(t))
			got, err := child.EnsureEmbeddings(model, &serve.ForwardEnv{})
			if err != nil {
				t.Fatal(err)
			}
			if scratch := mir.scratchLogits(t, model); !sameTensorBits(got, scratch) {
				t.Fatalf("step %d (%s): incremental logits diverge from rebuild-from-scratch",
					step, st.Recompute)
			}
			snap = child
		}
	})
}
