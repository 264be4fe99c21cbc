// Package store implements the out-of-core graph store (DESIGN.md §16):
// a page-aligned on-disk format holding both CSRs, the edge list, edge
// types, labels and the row-major feature matrix, written once by
// seastar-convert and memory-mapped read-only at load. Section offsets
// are 4096-byte aligned so every array lands on its own pages and the
// mapping can be aliased directly as Go slices — the loaded *graph.Graph
// and feature tensor are byte-for-byte the arrays on disk, so compiled
// plans, the fused VM and normalizer derivation run unchanged over
// disk-resident data. Pages fault in on demand through the OS page
// cache; the pipeline counts the major faults of its sample and gather
// stages (MajorFaults).
//
// Numbers are stored in the writing host's native byte order; a
// byte-order sentinel in the header rejects cross-endian files cleanly
// instead of decoding garbage.
package store

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Format constants. The header occupies the first page; every section
// starts on its own page boundary.
const (
	// PageSize is the alignment unit of the on-disk format.
	PageSize = 4096
	// Magic identifies a seastar graph store file.
	Magic = "SGSTORE1"
	// FormatVersion is the current on-disk format version. Version 2
	// numbers edges by in-CSR slot and stores no in-CSR edge-id section;
	// a version-1 file is rejected.
	FormatVersion = 2

	// orderSentinel is written in native byte order; a reader on a
	// host with different endianness sees a scrambled value.
	orderSentinel uint32 = 0x01020304
)

// Section indices into the header's section table.
const (
	secInOffsets = iota
	secInNbrs
	secOutOffsets
	secOutNbrs
	secOutEids
	secRowIDs
	secSrcs
	secDsts
	secEdgeTypes
	secLabels
	secFeatures
	numSections
)

// Header field offsets (bytes from start of file).
const (
	offMagic        = 0
	offVersion      = 8
	offOrder        = 12
	offN            = 16
	offM            = 24
	offFeatDim      = 32
	offEdgeTypes    = 40
	offClasses      = 48
	offFingerprint  = 56
	offSectionCount = 64
	offSections     = 72
	offChecksum     = offSections + numSections*16 // 248
	headerSize      = offChecksum + 8              // 256
)

// maxDim bounds n, m and n*featDim so int32 vertex/edge ids and int
// indexing stay valid everywhere downstream.
const maxDim = 1<<31 - 1

type section struct {
	off uint64 // byte offset from start of file; PageSize-aligned
	len uint64 // exact payload length in bytes (no padding)
}

type header struct {
	version      uint32
	n            uint64
	m            uint64
	featDim      uint64
	numEdgeTypes uint64
	numClasses   uint64
	fingerprint  uint64
	sections     [numSections]section
}

func (h *header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b[offMagic:], Magic)
	putU32(b[offVersion:], h.version)
	putU32(b[offOrder:], orderSentinel)
	putU64(b[offN:], h.n)
	putU64(b[offM:], h.m)
	putU64(b[offFeatDim:], h.featDim)
	putU64(b[offEdgeTypes:], h.numEdgeTypes)
	putU64(b[offClasses:], h.numClasses)
	putU64(b[offFingerprint:], h.fingerprint)
	putU64(b[offSectionCount:], numSections)
	for i, s := range h.sections {
		putU64(b[offSections+i*16:], s.off)
		putU64(b[offSections+i*16+8:], s.len)
	}
	putU64(b[offChecksum:], headerChecksum(b))
	return b
}

// headerChecksum hashes every header byte before the checksum field.
func headerChecksum(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b[:offChecksum])
	return f.Sum64()
}

func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("store: file too small for header (%d bytes)", len(b))
	}
	if string(b[offMagic:offMagic+8]) != Magic {
		return h, fmt.Errorf("store: bad magic %q (not a seastar graph store)", b[offMagic:offMagic+8])
	}
	if got := getU32(b[offOrder:]); got != orderSentinel {
		return h, fmt.Errorf("store: byte-order sentinel %#x (file written on a host with different endianness)", got)
	}
	h.version = getU32(b[offVersion:])
	if h.version != FormatVersion {
		return h, fmt.Errorf("store: format version %d (this build reads version %d)", h.version, FormatVersion)
	}
	if got, want := getU64(b[offChecksum:]), headerChecksum(b); got != want {
		return h, fmt.Errorf("store: header checksum %#x != %#x (corrupt header)", got, want)
	}
	if c := getU64(b[offSectionCount:]); c != numSections {
		return h, fmt.Errorf("store: %d sections, want %d", c, numSections)
	}
	h.n = getU64(b[offN:])
	h.m = getU64(b[offM:])
	h.featDim = getU64(b[offFeatDim:])
	h.numEdgeTypes = getU64(b[offEdgeTypes:])
	h.numClasses = getU64(b[offClasses:])
	h.fingerprint = getU64(b[offFingerprint:])
	for i := range h.sections {
		h.sections[i].off = getU64(b[offSections+i*16:])
		h.sections[i].len = getU64(b[offSections+i*16+8:])
	}
	return h, nil
}

// Source is the in-memory data a store file is written from. Feat may
// have zero columns (a structure-only store); Labels may be nil (stored
// as zeros).
type Source struct {
	G          *graph.Graph
	Feat       *tensor.Tensor
	Labels     []int
	NumClasses int
}

// sectionLens returns the exact payload length of every section for the
// given dimensions.
func sectionLens(n, m, featDim uint64, hetero bool) [numSections]uint64 {
	var l [numSections]uint64
	l[secInOffsets] = (n + 1) * 8
	l[secInNbrs] = m * 4
	l[secOutOffsets] = (n + 1) * 8
	l[secOutNbrs] = m * 4
	l[secOutEids] = m * 4
	l[secRowIDs] = n * 4
	l[secSrcs] = m * 4
	l[secDsts] = m * 4
	if hetero {
		l[secEdgeTypes] = m * 4
	}
	l[secLabels] = n * 4
	l[secFeatures] = n * featDim * 4
	return l
}

func pageAlign(x uint64) uint64 {
	return (x + PageSize - 1) &^ uint64(PageSize-1)
}

// validateSource checks the invariants Convert requires: an unsorted
// graph (identity RowIDs — both CSRs then share one stored row-id
// section), matching feature/label lengths, and dimensions that fit
// int32 ids.
func validateSource(src *Source) error {
	g := src.G
	if g == nil {
		return fmt.Errorf("store: nil graph")
	}
	if g.N > maxDim || g.M > maxDim {
		return fmt.Errorf("store: graph %dx%d exceeds int32 id space", g.N, g.M)
	}
	if g.In.Sorted || g.Out.Sorted {
		return fmt.Errorf("store: graph is degree-sorted; convert the unsorted graph (degree sort is applied per batch at run time)")
	}
	if g.In.EdgeIDs != nil || len(g.Out.EdgeIDs) != g.M {
		return fmt.Errorf("store: edge ids inconsistent with m=%d (the in-CSR's slots are the edge ids)", g.M)
	}
	for _, c := range []*graph.CSR{&g.In, &g.Out} {
		if len(c.Offsets) != g.N+1 || len(c.Nbrs) != g.M || len(c.RowIDs) != g.N {
			return fmt.Errorf("store: CSR arrays inconsistent with n=%d m=%d", g.N, g.M)
		}
		for i, r := range c.RowIDs {
			if int(r) != i {
				return fmt.Errorf("store: non-identity RowIDs (row %d = %d); only unsorted graphs are convertible", i, r)
			}
		}
	}
	if len(g.Srcs) != g.M || len(g.Dsts) != g.M {
		return fmt.Errorf("store: edge list length %d/%d, want %d", len(g.Srcs), len(g.Dsts), g.M)
	}
	if g.EdgeTypes != nil && len(g.EdgeTypes) != g.M {
		return fmt.Errorf("store: %d edge types, want %d", len(g.EdgeTypes), g.M)
	}
	if src.Feat == nil {
		return fmt.Errorf("store: nil feature tensor (use a 0-column tensor for a structure-only store)")
	}
	if src.Feat.Rows() != g.N {
		return fmt.Errorf("store: %d feature rows, want %d", src.Feat.Rows(), g.N)
	}
	if d := src.Feat.Cols(); uint64(g.N)*uint64(d) > maxDim {
		return fmt.Errorf("store: feature matrix %dx%d exceeds int32 element space", g.N, d)
	}
	if src.Labels != nil && len(src.Labels) != g.N {
		return fmt.Errorf("store: %d labels, want %d", len(src.Labels), g.N)
	}
	for i, l := range src.Labels {
		if l < 0 || l > math.MaxInt32 {
			return fmt.Errorf("store: label %d = %d out of int32 range", i, l)
		}
	}
	return nil
}

// fingerprintSource hashes the logical content (dimensions, edge list,
// edge types, labels, features) with FNV-1a. The CSRs are derived from
// the edge list, so they are not hashed separately.
func fingerprintSource(src *Source, labels32 []int32) uint64 {
	f := fnv.New64a()
	var dims [8]byte
	for _, v := range []uint64{
		uint64(src.G.N), uint64(src.G.M),
		uint64(src.Feat.Cols()), uint64(src.G.NumEdgeTypes), uint64(src.NumClasses),
	} {
		putU64(dims[:], v)
		f.Write(dims[:])
	}
	f.Write(i32Bytes(src.G.Srcs))
	f.Write(i32Bytes(src.G.Dsts))
	f.Write(i32Bytes(src.G.EdgeTypes))
	f.Write(i32Bytes(labels32))
	f.Write(f32Bytes(src.Feat.Data()))
	return f.Sum64()
}

// Write serializes src to w in store format. The graph must be unsorted
// (identity RowIDs); see WriteFile for the common path.
func Write(w io.Writer, src *Source) error {
	if err := validateSource(src); err != nil {
		return err
	}
	g := src.G
	labels32 := make([]int32, g.N)
	for i := range labels32 {
		if src.Labels != nil {
			labels32[i] = int32(src.Labels[i])
		}
	}

	var h header
	h.version = FormatVersion
	h.n = uint64(g.N)
	h.m = uint64(g.M)
	h.featDim = uint64(src.Feat.Cols())
	h.numEdgeTypes = uint64(max(g.NumEdgeTypes, 1))
	h.numClasses = uint64(src.NumClasses)
	h.fingerprint = fingerprintSource(src, labels32)

	lens := sectionLens(h.n, h.m, h.featDim, g.EdgeTypes != nil)
	off := uint64(PageSize)
	for i := range h.sections {
		h.sections[i] = section{off: off, len: lens[i]}
		off = pageAlign(off + lens[i])
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	if err := writePadded(bw, h.encode(), PageSize); err != nil {
		return err
	}
	payload := [numSections][]byte{
		secInOffsets:  i64Bytes(g.In.Offsets),
		secInNbrs:     i32Bytes(g.In.Nbrs),
		secOutOffsets: i64Bytes(g.Out.Offsets),
		secOutNbrs:    i32Bytes(g.Out.Nbrs),
		secOutEids:    i32Bytes(g.Out.EdgeIDs),
		secRowIDs:     i32Bytes(g.In.RowIDs),
		secSrcs:       i32Bytes(g.Srcs),
		secDsts:       i32Bytes(g.Dsts),
		secEdgeTypes:  i32Bytes(g.EdgeTypes),
		secLabels:     i32Bytes(labels32),
		secFeatures:   f32Bytes(src.Feat.Data()),
	}
	for i, p := range payload {
		if uint64(len(p)) != lens[i] {
			return fmt.Errorf("store: internal: section %d payload %d bytes, want %d", i, len(p), lens[i])
		}
		pad := int(pageAlign(lens[i]) - lens[i])
		if err := writePadded(bw, p, len(p)+pad); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writePadded writes b followed by zeros up to total bytes.
func writePadded(w *bufio.Writer, b []byte, total int) error {
	if _, err := w.Write(b); err != nil {
		return err
	}
	for i := len(b); i < total; i++ {
		if err := w.WriteByte(0); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes src to path atomically (temp file + rename).
func WriteFile(path string, src *Source) error {
	tmp, err := os.CreateTemp(dirOf(path), ".store-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, src); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
