package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary graph serialization: a versioned little-endian format holding the
// edge list and edge types. CSRs are rebuilt on load (they are derived
// state), which keeps files small and the format stable.
//
//	magic   [4]byte  "SGR1"
//	n       uint32
//	m       uint32
//	types   uint32   number of edge types (1 = homogeneous)
//	srcs    [m]uint32
//	dsts    [m]uint32
//	etypes  [m]uint32 (present only when types > 1)
var magic = [4]byte{'S', 'G', 'R', '1'}

// WriteTo serializes the graph. It returns the byte count written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var count int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		count += int64(binary.Size(v))
		return nil
	}
	if err := write(magic); err != nil {
		return count, err
	}
	if err := write(uint32(g.N)); err != nil {
		return count, err
	}
	if err := write(uint32(g.M)); err != nil {
		return count, err
	}
	if err := write(uint32(g.NumEdgeTypes)); err != nil {
		return count, err
	}
	if err := write(g.Srcs); err != nil {
		return count, err
	}
	if err := write(g.Dsts); err != nil {
		return count, err
	}
	if g.NumEdgeTypes > 1 {
		if err := write(g.EdgeTypes); err != nil {
			return count, err
		}
	}
	return count, bw.Flush()
}

// ReadGraph deserializes a graph written by WriteTo and rebuilds its CSR
// structures (unsorted; callers re-apply SortByDegree / SortEdgesByType).
func ReadGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var m4 [4]byte
	if err := binary.Read(br, binary.LittleEndian, &m4); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if m4 != magic {
		return nil, fmt.Errorf("graph: bad magic %q", m4)
	}
	var n, m, types uint32
	for _, p := range []*uint32{&n, &m, &types} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	const maxReasonable = 1 << 31
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	if err := binary.Read(br, binary.LittleEndian, srcs); err != nil {
		return nil, fmt.Errorf("graph: reading srcs: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, dsts); err != nil {
		return nil, fmt.Errorf("graph: reading dsts: %w", err)
	}
	var ets []int32
	if types > 1 {
		ets = make([]int32, m)
		if err := binary.Read(br, binary.LittleEndian, ets); err != nil {
			return nil, fmt.Errorf("graph: reading edge types: %w", err)
		}
	}
	return FromTypedEdges(int(n), srcs, dsts, ets, int(types))
}
