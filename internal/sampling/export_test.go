package sampling

import "fmt"

// Batches partitions vertices (shuffled) into seed batches of the given
// size — one training epoch's worth. The shuffle draws from the
// sampler's dedicated shuffle stream, so the order depends only on the
// base seed and how many epochs have been drawn — never on interleaved
// Sample calls.
func (s *Sampler) Batches(batchSize int) ([][]int32, error) {
	if batchSize < 1 {
		return nil, fmt.Errorf("sampling: batch size must be ≥ 1")
	}
	return slicePerm(s.shuffle.Perm(s.G.N), batchSize), nil
}
