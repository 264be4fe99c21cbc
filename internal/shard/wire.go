// Package shard is the multi-process serving layer: N workers, each
// holding one vertex-cut fragment (internal/part) and stepping the
// compiled plans over it (serve.ShardForward), behind a coordinator that
// drives the per-layer mirror exchange GAS-style and scatters /v1/infer
// to the owning shards.
//
// Every process derives the same owner table from (dataset, partition
// mode, shard count); a worker builds only its own fragment from it and
// the coordinator builds none, so no fragment crosses the network, only
// rows. Both worker RPCs, /v1/shard/step and /v1/shard/gather, carry one
// binary frame per request and per reply (Content-Type
// application/x-seastar-frame), all little-endian:
//
//	header  magic "SSF1" | gen u64 | round u32 | width u32 | flags u32 (bit 0: done) | blocks u32
//	block   peer u32 | rows u32 | CRC-32C of the payload u32 | payload: rows × width 4-byte words
//
// A step request for round r carries one block per peer that masters
// mirror rows here, in ascending peer order — the rows that peer exported
// in round r−1, none in round 1 — and its reply one block per peer that
// mirrors rows mastered here, none after the last round. A row is the
// next stage's crossing values side by side (serve.ShardForward.
// Exchanged) as raw float32 bits: bit-exact, no decimal round trip, and no
// row ids, because fragment s's ExportTo[t] pairs element for element
// with fragment t's ImportFrom[s]. A gather request is one block of node
// ids (width 1) addressed to the worker; its reply is one block of their
// logit rows.
//
// Every size in a frame follows from its header and the fragment, so each
// side checks a header before it reads a payload byte and reads exactly
// what was announced: the worker caps the body there (400 for a bad header
// or CRC, 413 past the announced size) and streams rows between the body
// and its tensors; the coordinator reads each exported block once, into a
// buffer of exactly its size, and relays those bytes as the importer's
// next request. The checksum is CRC-32C (Castagnoli), which runs in
// hardware: an FNV-64a prototype spent a quarter of a sync hashing.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"

	"seastar/internal/tensor"
)

const (
	frameMagic      = 0x31465353 // "SSF1" read as a little-endian u32
	headerSize      = 28
	blockHeaderSize = 12
	frameType       = "application/x-seastar-frame"
	// scratchSize bounds the buffer a block's rows stream through.
	scratchSize = 16 << 10
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// errOversize marks a body that goes on past what its frame announced
	// (413 on the worker, like one past the cap).
	errOversize = errors.New("shard: body longer than its frame announces")
)

// header is a frame's fixed header.
type header struct {
	gen    uint64
	round  int
	width  int // 4-byte words per row
	done   bool
	blocks int
}

func (h header) encode() []byte {
	b := make([]byte, headerSize)
	le.PutUint32(b, frameMagic)
	le.PutUint64(b[4:], h.gen)
	le.PutUint32(b[12:], uint32(h.round))
	le.PutUint32(b[16:], uint32(h.width))
	if h.done {
		le.PutUint32(b[20:], 1)
	}
	le.PutUint32(b[24:], uint32(h.blocks))
	return b
}

// readHeader reads a frame header; what it must say is the caller's to
// check, before any payload byte is read.
func readHeader(r io.Reader) (header, error) {
	var b [headerSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return header{}, fmt.Errorf("shard: frame header: %w", err)
	}
	if m := le.Uint32(b[:]); m != frameMagic {
		return header{}, fmt.Errorf("shard: frame magic %08x, want %08x", m, frameMagic)
	}
	flags := le.Uint32(b[20:])
	if flags > 1 {
		return header{}, fmt.Errorf("shard: frame flags %x", flags)
	}
	return header{
		gen:    le.Uint64(b[4:]),
		round:  int(le.Uint32(b[12:])),
		width:  int(le.Uint32(b[16:])),
		done:   flags == 1,
		blocks: int(le.Uint32(b[24:])),
	}, nil
}

// expect checks a received header against the one the receiver derived.
func (h header) expect(want header) error {
	if h != want {
		return fmt.Errorf("shard: frame header %+v, want %+v", h, want)
	}
	return nil
}

// expectHeader reads a frame header that must be want.
func expectHeader(r io.Reader, want header) error {
	h, err := readHeader(r)
	if err != nil {
		return err
	}
	return h.expect(want)
}

// block is a block header.
type block struct {
	peer, rows int
	crc        uint32
}

func (b block) encode() []byte {
	buf := make([]byte, blockHeaderSize)
	le.PutUint32(buf, uint32(b.peer))
	le.PutUint32(buf[4:], uint32(b.rows))
	le.PutUint32(buf[8:], b.crc)
	return buf
}

func readBlock(r io.Reader) (block, error) {
	var b [blockHeaderSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return block{}, fmt.Errorf("shard: block header: %w", err)
	}
	return block{peer: int(le.Uint32(b[:])), rows: int(le.Uint32(b[4:])), crc: le.Uint32(b[8:])}, nil
}

// expect checks a block header against the peer and row count the
// fragment implies.
func (b block) expect(peer, rows int) error {
	if b.peer != peer || b.rows != rows {
		return fmt.Errorf("shard: block of %d rows for peer %d, want %d rows for peer %d", b.rows, b.peer, rows, peer)
	}
	return nil
}

// newScratch returns the buffer a block of rows × width words streams
// through: whole rows, at most scratchSize unless one row is larger, never
// more than the block.
func newScratch(rows, width int) []byte {
	row := 4 * width
	return make([]byte, min(rows*row, max(scratchSize/max(row, 1)*row, row)))
}

// scratchFor is newScratch for the largest of blocks.
func scratchFor(width int, blocks []rowBlock) []byte {
	rows := 0
	for _, rb := range blocks {
		rows = max(rows, len(rb.at))
	}
	return newScratch(rows, width)
}

// chunks calls f over consecutive row ranges [lo, hi) of a block, with
// the part of scratch their words fill.
func chunks(rows, width int, scratch []byte, f func(lo, hi int, words []byte) error) error {
	per := rows
	if width > 0 {
		per = len(scratch) / (4 * width)
	}
	for lo := 0; lo < rows; lo += per {
		hi := min(lo+per, rows)
		if err := f(lo, hi, scratch[:4*width*(hi-lo)]); err != nil {
			return err
		}
	}
	return nil
}

// rowBlock is one block's rows in memory: row i is row at[i] of each of
// ts, side by side.
type rowBlock struct {
	peer int
	ts   []*tensor.Tensor
	at   []int32
}

// words encodes (or, decode, decodes) row i of the block.
func (rb rowBlock) words(i int, w []byte, decode bool) {
	for _, t := range rb.ts {
		row := t.Row(int(rb.at[i]))
		for j := range row {
			if decode {
				row[j] = math.Float32frombits(le.Uint32(w))
			} else {
				le.PutUint32(w, math.Float32bits(row[j]))
			}
			w = w[4:]
		}
	}
}

// frameSize is the byte length of a frame of width-word rows.
func frameSize(width int, blocks []rowBlock) int {
	n := headerSize
	for _, b := range blocks {
		n += blockHeaderSize + 4*width*len(b.at)
	}
	return n
}

// writeFrame streams a frame to w straight from the rows: each block takes
// one pass over them for its CRC, which precedes the payload, and one to
// write them.
func writeFrame(w io.Writer, h header, blocks []rowBlock) error {
	if _, err := w.Write(h.encode()); err != nil {
		return err
	}
	scratch := scratchFor(h.width, blocks)
	for _, rb := range blocks {
		n := len(rb.at)
		b := block{peer: rb.peer, rows: n}
		fill := func(lo, hi int, words []byte) {
			for i := lo; i < hi; i++ {
				rb.words(i, words[4*h.width*(i-lo):], false)
			}
		}
		chunks(n, h.width, scratch, func(lo, hi int, words []byte) error {
			fill(lo, hi, words)
			b.crc = crc32.Update(b.crc, castagnoli, words)
			return nil
		})
		if _, err := w.Write(b.encode()); err != nil {
			return err
		}
		if err := chunks(n, h.width, scratch, func(lo, hi int, words []byte) error {
			fill(lo, hi, words)
			_, err := w.Write(words)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// readBlocks reads a frame's blocks, which must be blocks' peers with
// their row counts in order, straight into their rows, and checks each
// CRC. A block that fails its CRC has already been written: the caller
// must treat every row it names as garbage.
func readBlocks(r io.Reader, width int, blocks []rowBlock) error {
	scratch := scratchFor(width, blocks)
	for _, rb := range blocks {
		b, err := readBlock(r)
		if err != nil {
			return err
		}
		if err := b.expect(rb.peer, len(rb.at)); err != nil {
			return err
		}
		if err := readPayload(r, b, width, scratch, func(i int, w []byte) { rb.words(i, w, true) }); err != nil {
			return err
		}
	}
	return nil
}

// readPayload streams a block's payload through scratch, handing each
// row's words to take, and checks the CRC once all are read.
func readPayload(r io.Reader, b block, width int, scratch []byte, take func(i int, w []byte)) error {
	var crc uint32
	if err := chunks(b.rows, width, scratch, func(lo, hi int, words []byte) error {
		if _, err := io.ReadFull(r, words); err != nil {
			return fmt.Errorf("shard: block for peer %d: %w", b.peer, err)
		}
		crc = crc32.Update(crc, castagnoli, words)
		for i := lo; i < hi; i++ {
			take(i, words[4*width*(i-lo):])
		}
		return nil
	}); err != nil {
		return err
	}
	if crc != b.crc {
		return fmt.Errorf("shard: block for peer %d: CRC-32C %08x, header says %08x", b.peer, crc, b.crc)
	}
	return nil
}

// expectEnd checks that r holds nothing past the frame just read.
func expectEnd(r io.Reader) error {
	var b [1]byte
	switch _, err := io.ReadFull(r, b[:]); err {
	case io.EOF:
		return nil
	case nil:
		return errOversize
	default:
		return err
	}
}

// relay is one block in transit through the coordinator: read once from
// its exporter's reply into exactly the bytes its header announced, and
// written unchanged into its importer's next request.
type relay struct {
	block
	payload []byte
}

// relayFrame lays a frame out over relays' bytes without copying them.
func relayFrame(h header, relays []relay) net.Buffers {
	bufs := net.Buffers{h.encode()}
	for _, rl := range relays {
		bufs = append(bufs, rl.encode(), rl.payload)
	}
	return bufs
}

// readRelays reads a step reply: its header must be want and its blocks
// blocks' peers with their row counts, in order. Each payload is read
// into a buffer of exactly its size and CRC-checked.
func readRelays(r io.Reader, want header, blocks []block) ([]relay, error) {
	if err := expectHeader(r, want); err != nil {
		return nil, err
	}
	relays := make([]relay, len(blocks))
	for i, wb := range blocks {
		b, err := readBlock(r)
		if err != nil {
			return nil, err
		}
		if err := b.expect(wb.peer, wb.rows); err != nil {
			return nil, err
		}
		payload := make([]byte, 4*want.width*b.rows)
		if err := readPayload(r, b, want.width, payload, func(int, []byte) {}); err != nil {
			return nil, err
		}
		relays[i] = relay{b, payload}
	}
	return relays, expectEnd(r)
}

// readRows reads a frame whose header must be want straight into the rows
// of blocks (readBlocks), and nothing past it.
func readRows(r io.Reader, want header, blocks []rowBlock) error {
	if err := expectHeader(r, want); err != nil {
		return err
	}
	if err := readBlocks(r, want.width, blocks); err != nil {
		return err
	}
	return expectEnd(r)
}

// gatherHeader is the header of every gather request.
var gatherHeader = header{gen: staticGen, width: 1, blocks: 1}

// nodeFrame is the gather request for nodes, addressed to shard.
func nodeFrame(shard int, nodes []int32) net.Buffers {
	payload := make([]byte, 4*len(nodes))
	for i, v := range nodes {
		le.PutUint32(payload[4*i:], uint32(v))
	}
	b := block{peer: shard, rows: len(nodes), crc: crc32.Checksum(payload, castagnoli)}
	return relayFrame(gatherHeader, []relay{{b, payload}})
}

// maxNodeFrame is the largest gather request a shard owning owned
// vertices accepts.
func maxNodeFrame(owned int) int64 { return int64(headerSize + blockHeaderSize + 4*owned) }

// readNodes reads a gather request addressed to shard: between 1 and
// owned node ids, the bound checked before the ids are read.
func readNodes(r io.Reader, shard, owned int) ([]int32, error) {
	if err := expectHeader(r, gatherHeader); err != nil {
		return nil, err
	}
	b, err := readBlock(r)
	if err != nil {
		return nil, err
	}
	if b.peer != shard || b.rows < 1 || b.rows > owned {
		return nil, fmt.Errorf("shard: gather of %d nodes for shard %d, want 1..%d for shard %d", b.rows, b.peer, owned, shard)
	}
	nodes := make([]int32, b.rows)
	return nodes, readPayload(r, b, 1, newScratch(b.rows, 1), func(i int, w []byte) { nodes[i] = int32(le.Uint32(w)) })
}

// serveFrame answers an HTTP request with a frame streamed from rows.
func serveFrame(rw http.ResponseWriter, h header, blocks []rowBlock) {
	rw.Header().Set("Content-Type", frameType)
	rw.Header().Set("Content-Length", strconv.Itoa(frameSize(h.width, blocks)))
	writeFrame(rw, h, blocks) // the status is sent; a client gone mid-frame sees a short body
}

// infoResponse describes a worker's fragment for sanity checks.
type infoResponse struct {
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Arch    string `json:"arch"`
	Rounds  int    `json:"rounds"`
	Owned   int    `json:"owned"`
	Mirrors int    `json:"mirrors"`
	Edges   int    `json:"edges"`
	N       int    `json:"n"`
	Gen     uint64 `json:"gen"`
}
