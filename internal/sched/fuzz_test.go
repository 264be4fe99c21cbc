package sched

import (
	"testing"
)

// FuzzEdgeBalanced asserts the partitioner's structural invariants on
// arbitrary degree sequences: the returned ranges exactly tile [0, n) in
// order, never exceed the requested chunk count, and chunkWeights
// conserves total weight.
func FuzzEdgeBalanced(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(4))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{255, 0, 255, 0, 7, 7, 7}, uint8(3))
	f.Add([]byte{}, uint8(8))
	f.Add([]byte{200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(5))

	f.Fuzz(func(t *testing.T, degrees []byte, chunks uint8) {
		if len(degrees) > 1<<12 {
			degrees = degrees[:1<<12]
		}
		n := len(degrees)
		offsets := make([]int64, n+1)
		for i, d := range degrees {
			offsets[i+1] = offsets[i] + int64(d)
		}
		maxChunks := int(chunks)
		rs := EdgeBalanced(offsets, 1, maxChunks)

		if n == 0 {
			if rs != nil {
				t.Fatalf("expected no ranges for empty CSR, got %v", rs)
			}
			return
		}
		if maxChunks < 1 {
			maxChunks = 1
		}
		if len(rs) > maxChunks {
			t.Fatalf("%d ranges exceed requested %d", len(rs), maxChunks)
		}
		// Exact ordered tiling of [0, n).
		next := 0
		for i, r := range rs {
			if r.Lo != next {
				t.Fatalf("range %d starts at %d, want %d (ranges %v)", i, r.Lo, next, rs)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("range %d empty or inverted: %v", i, r)
			}
			next = r.Hi
		}
		if next != n {
			t.Fatalf("ranges cover [0,%d), want [0,%d)", next, n)
		}
		// Weight conservation under the partition cost model.
		var total float64
		for _, w := range chunkWeights(offsets, 1, rs) {
			total += w
		}
		want := float64(offsets[n]) + float64(n)
		if diff := total - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("chunk weights sum to %v, want %v", total, want)
		}
	})
}
