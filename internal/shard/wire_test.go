package shard

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"seastar/internal/device"
	"seastar/internal/serve"
	"seastar/internal/tensor"
)

// wireFixture is one fragment's frame context in miniature, for the four
// frame decoders: shard 1 of 3, with 6 owned vertices; it imports 2 mirror
// rows from peer 0 and 1 from peer 2, exports 3 rows to peer 0 and 1 to
// peer 2, a row of the exchange is two tensors (widths 2 and 1) side by
// side, and a gather reply carries 4 logit rows of width 3.
type wireFixture struct {
	imports, gathered []rowBlock
	relays            []relay // decoded step reply
	nodes             []int32 // decoded gather request
}

const (
	fxShard = 1
	fxOwned = 6
)

var (
	fxStepRequest = header{gen: staticGen, round: 2, width: 3, blocks: 2}
	fxStepReply   = header{gen: staticGen, round: 2, width: 3, blocks: 2}
	fxExports     = []block{{peer: 0, rows: 3}, {peer: 2, rows: 1}}
	fxGatherReply = header{gen: staticGen, round: 3, width: 3, done: true, blocks: 1}
)

func newWireFixture() *wireFixture {
	exchanged := []*tensor.Tensor{tensor.New(9, 2), tensor.New(9, 1)}
	logits := tensor.New(4, 3)
	return &wireFixture{
		imports:  []rowBlock{{peer: 0, ts: exchanged, at: []int32{6, 7}}, {peer: 2, ts: exchanged, at: []int32{8}}},
		gathered: []rowBlock{{peer: fxShard, ts: []*tensor.Tensor{logits}, at: []int32{3, 0, 2, 1}}},
	}
}

// decode runs the decoder of frame kind 0–3 over frame exactly as its
// receiver does, into fx: a worker's step request, the coordinator's
// reading of a step reply, a worker's gather request, the coordinator's
// reading of a gather reply.
func (fx *wireFixture) decode(kind uint8, frame []byte) error {
	r := bytes.NewReader(frame)
	var err error
	switch kind {
	case 0:
		if err = expectHeader(r, fxStepRequest); err == nil {
			if err = readBlocks(r, fxStepRequest.width, fx.imports); err == nil {
				err = expectEnd(r)
			}
		}
	case 1:
		fx.relays, err = readRelays(r, fxStepReply, fxExports)
	case 2:
		if fx.nodes, err = readNodes(r, fxShard, fxOwned); err == nil {
			err = expectEnd(r)
		}
	default:
		err = readRows(r, fxGatherReply, fx.gathered)
	}
	return err
}

// encode writes what decode read back out with the sender's encoder.
func (fx *wireFixture) encode(kind uint8) []byte {
	var out bytes.Buffer
	switch kind {
	case 0:
		writeFrame(&out, fxStepRequest, fx.imports)
	case 1:
		out.Write(bytes.Join(relayFrame(fxStepReply, fx.relays), nil))
	case 2:
		out.Write(bytes.Join(nodeFrame(fxShard, fx.nodes), nil))
	default:
		writeFrame(&out, fxGatherReply, fx.gathered)
	}
	return out.Bytes()
}

// validFrame is a well-formed frame of each kind with random rows.
func validFrame(kind uint8, rng *rand.Rand) []byte {
	fx := newWireFixture()
	for _, rb := range append(fx.imports, fx.gathered...) {
		for _, t := range rb.ts {
			copy(t.Data(), tensor.Randn(rng, 1, t.Rows(), t.Cols()).Data())
		}
	}
	for _, b := range fxExports {
		payload := make([]byte, 4*fxStepReply.width*b.rows)
		rng.Read(payload)
		b.crc = crc32.Checksum(payload, castagnoli)
		fx.relays = append(fx.relays, relay{b, payload})
	}
	fx.nodes = []int32{5, 0, 3}
	return fx.encode(kind)
}

// FuzzShardWire holds the four frame decoders to their contract on any
// input: never panic, never allocate past what a header checked against
// the fragment allows, decode∘encode is the identity on whatever decodes,
// and flipping any one bit of a frame that decodes makes it refused. The
// two a worker receives are also posted to a live worker's handler, which
// must answer without a 500 and leave seastar_serve_panics_total alone.
func FuzzShardWire(f *testing.F) {
	g, feat := testGraph(f, 60)
	worker, err := NewWorker(g, feat, testSpec("gcn"), 2, 1, "greedy", device.V100)
	if err != nil {
		f.Fatal(err)
	}
	h := worker.Handler()
	rng := rand.New(rand.NewSource(1))
	for kind := range uint8(4) {
		f.Add(kind, validFrame(kind, rng), uint16(0))
	}
	// Every frame these decoders accept is under 256 bytes; the bound
	// leaves room for error values and runtime noise, not for a claimed
	// size taken on trust (rows or widths up to 2³²).
	const allocBound = 64 << 10
	f.Fuzz(func(t *testing.T, kind uint8, frame []byte, flip uint16) {
		kind %= 4
		fx := newWireFixture()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fx.decode(kind, frame)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound {
			t.Fatalf("kind %d: decoding %d bytes allocated %d", kind, len(frame), alloc)
		}
		if path, ok := map[uint8]string{0: "/v1/shard/step", 2: "/v1/shard/gather"}[kind]; ok {
			panics := serve.Panics()
			if rw := post(h, path, frame); rw.Code == http.StatusInternalServerError || serve.Panics() != panics {
				t.Fatalf("kind %d: worker answered %d, panics %d → %d", kind, rw.Code, panics, serve.Panics())
			}
		}
		if err != nil {
			return
		}
		if got := fx.encode(kind); !bytes.Equal(got, frame) {
			t.Fatalf("kind %d: re-encoding what decoded gives %x, want %x", kind, got, frame)
		}
		bad := bytes.Clone(frame)
		bad[int(flip>>3)%len(bad)] ^= 1 << (flip & 7)
		if err := newWireFixture().decode(kind, bad); err == nil {
			t.Fatalf("kind %d: frame with bit %d of byte %d flipped decoded", kind, flip&7, int(flip>>3)%len(bad))
		}
	})
}
