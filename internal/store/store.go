package store

import (
	"fmt"
	"hash/fnv"
	"os"

	"seastar/internal/graph"
	"seastar/internal/tensor"
)

// Store is a read-only, memory-mapped graph store. Graph() and
// Features() alias the mapping directly — zero copies, zero
// deserialization — so a Store must stay open for as long as anything
// returned from it is in use. The mapping is PROT_READ: writing through
// a returned slice faults, which is the contract (training copies rows
// out; it never mutates the graph or feature matrix in place).
type Store struct {
	path   string
	data   []byte
	mapped bool // true: munmap on Close; false: heap fallback
	hdr    header

	g      *graph.Graph
	feat   *tensor.Tensor
	labels []int
}

// Open maps the store file at path read-only and validates the header
// and section table against the actual file size, so a truncated or
// corrupt file is a clean error here rather than a fault on first
// access. The returned Store is safe for concurrent readers.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size < PageSize {
		return nil, fmt.Errorf("store: %s: %d bytes, smaller than one page (truncated?)", path, size)
	}
	data, mapped, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	st := &Store{path: path, data: data, mapped: mapped}
	if err := st.validate(); err != nil {
		st.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	st.build()
	return st, nil
}

// validate decodes the header and checks every section lies inside the
// file with the exact length the dimensions dictate. After this passes,
// no access through the accessors can run off the end of the mapping.
func (s *Store) validate() error {
	h, err := decodeHeader(s.data)
	if err != nil {
		return err
	}
	if h.n > maxDim || h.m > maxDim {
		return fmt.Errorf("n=%d m=%d exceed int32 id space", h.n, h.m)
	}
	if h.n*h.featDim > maxDim {
		return fmt.Errorf("feature matrix %dx%d exceeds int32 element space", h.n, h.featDim)
	}
	if h.numEdgeTypes == 0 {
		return fmt.Errorf("zero edge types")
	}
	hetero := h.sections[secEdgeTypes].len != 0
	want := sectionLens(h.n, h.m, h.featDim, hetero)
	size := uint64(len(s.data))
	for i, sec := range h.sections {
		if sec.len != want[i] {
			return fmt.Errorf("section %d is %d bytes, want %d for n=%d m=%d d=%d",
				i, sec.len, want[i], h.n, h.m, h.featDim)
		}
		if sec.len == 0 {
			continue
		}
		if sec.off%PageSize != 0 {
			return fmt.Errorf("section %d offset %d not page-aligned", i, sec.off)
		}
		if sec.off > size || size-sec.off < sec.len {
			return fmt.Errorf("section %d [%d,+%d) runs past file end %d (truncated?)",
				i, sec.off, sec.len, size)
		}
	}
	s.hdr = h
	return nil
}

func (s *Store) section(i int) []byte {
	sec := s.hdr.sections[i]
	if sec.len == 0 {
		return nil
	}
	return s.data[sec.off : sec.off+sec.len : sec.off+sec.len]
}

// build assembles the graph and feature views over the mapping. Offsets
// validity (monotone, within m) is not re-proven here; graph.Validate
// is available to callers that want the full structural check.
func (s *Store) build() {
	n, m := int(s.hdr.n), int(s.hdr.m)
	rowIDs := bytesI32(s.section(secRowIDs))
	g := &graph.Graph{
		N: n, M: m,
		In: graph.CSR{
			Offsets: bytesI64(s.section(secInOffsets)),
			Nbrs:    bytesI32(s.section(secInNbrs)),
			RowIDs:  rowIDs,
		},
		Out: graph.CSR{
			Offsets: bytesI64(s.section(secOutOffsets)),
			Nbrs:    bytesI32(s.section(secOutNbrs)),
			EdgeIDs: bytesI32(s.section(secOutEids)),
			RowIDs:  rowIDs,
		},
		Srcs:         bytesI32(s.section(secSrcs)),
		Dsts:         bytesI32(s.section(secDsts)),
		EdgeTypes:    bytesI32(s.section(secEdgeTypes)),
		NumEdgeTypes: int(s.hdr.numEdgeTypes),
	}
	s.g = g
	feat := bytesF32(s.section(secFeatures))
	if feat == nil && n >= 0 {
		feat = []float32{} // zero-column store: a valid empty matrix
	}
	s.feat = tensor.FromSlice(feat, n, int(s.hdr.featDim))
	l32 := bytesI32(s.section(secLabels))
	s.labels = make([]int, n)
	for i, v := range l32 {
		s.labels[i] = int(v)
	}
}

// Graph returns the graph view over the mapping. Both CSRs alias the
// file; RowIDs is the stored identity array shared by both directions.
func (s *Store) Graph() *graph.Graph { return s.g }

// Features returns the [N, FeatDim] feature matrix aliasing the mapping.
func (s *Store) Features() *tensor.Tensor { return s.feat }

// Labels returns the per-vertex class labels (decoded to the heap at
// Open; the slice is shared across calls — treat as read-only).
func (s *Store) Labels() []int { return s.labels }

// NumClasses returns the label class count recorded at convert time.
func (s *Store) NumClasses() int { return int(s.hdr.numClasses) }

// N returns the vertex count.
func (s *Store) N() int { return int(s.hdr.n) }

// M returns the edge count.
func (s *Store) M() int { return int(s.hdr.m) }

// FeatDim returns the feature dimensionality.
func (s *Store) FeatDim() int { return int(s.hdr.featDim) }

// Fingerprint returns the content fingerprint recorded in the header.
func (s *Store) Fingerprint() uint64 { return s.hdr.fingerprint }

// Bytes returns the size of the backing file (mapping length).
func (s *Store) Bytes() int64 { return int64(len(s.data)) }

// VerifyFingerprint re-hashes the mapped content and compares it to the
// header fingerprint. It touches every page of the file, so it is a
// full-scan integrity check, not a cheap one.
func (s *Store) VerifyFingerprint() error {
	f := fnv.New64a()
	var dims [8]byte
	for _, v := range []uint64{s.hdr.n, s.hdr.m, s.hdr.featDim, s.hdr.numEdgeTypes, s.hdr.numClasses} {
		putU64(dims[:], v)
		f.Write(dims[:])
	}
	f.Write(s.section(secSrcs))
	f.Write(s.section(secDsts))
	f.Write(s.section(secEdgeTypes))
	f.Write(s.section(secLabels))
	f.Write(s.section(secFeatures))
	if got := f.Sum64(); got != s.hdr.fingerprint {
		return fmt.Errorf("store: content fingerprint %#x != header %#x (corrupt payload)", got, s.hdr.fingerprint)
	}
	return nil
}

// Close unmaps the file. Every slice previously returned by Graph,
// Features or section accessors becomes invalid.
func (s *Store) Close() error {
	if s.data == nil {
		return nil
	}
	data, mapped := s.data, s.mapped
	s.data, s.g, s.feat = nil, nil, nil
	return unmapFile(data, mapped)
}
