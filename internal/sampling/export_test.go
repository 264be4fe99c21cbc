package sampling

import (
	"fmt"
	"math/rand"
	"sync"
)

// streams holds, per sampler, the two RNG streams its tests draw from,
// seeded from the sampler's base seed: one for batch-order shuffling
// (Batches) and one for neighbour draws (Sample). Keeping them separate
// means interleaving Sample calls between Batches calls cannot perturb
// the epoch's batch order.
var streams sync.Map // *Sampler → *testStreams

type testStreams struct{ shuffle, sample *rand.Rand }

func (s *Sampler) streams() *testStreams {
	v, ok := streams.Load(s)
	if !ok {
		v, _ = streams.LoadOrStore(s, &testStreams{
			shuffle: rand.New(rand.NewSource(DeriveSeed(s.baseSeed, streamShuffle, 0))),
			sample:  rand.New(rand.NewSource(DeriveSeed(s.baseSeed, streamSample, 0))),
		})
	}
	return v.(*testStreams)
}

// Sample draws one batch for the given seed vertices from the sampler's
// neighbour-draw stream: its first draw is SampleAs(seeds, base seed)'s.
func (s *Sampler) Sample(seeds []int32) (*Batch, error) {
	return s.SampleRNG(seeds, s.streams().sample)
}

// Batches partitions vertices (shuffled) into seed batches of the given
// size — one training epoch's worth. The shuffle draws from the
// sampler's shuffle stream, so the order depends only on the base seed
// and how many epochs have been drawn — never on interleaved Sample
// calls.
func (s *Sampler) Batches(batchSize int) ([][]int32, error) {
	if batchSize < 1 {
		return nil, fmt.Errorf("sampling: batch size must be ≥ 1")
	}
	return slicePerm(s.streams().shuffle.Perm(s.G.N), batchSize), nil
}
