package serve

import (
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Norm returns the snapshot's cached 1/in-degree normalizer, for the
// package's external tests (delta ≡ rebuild compares it).
func (s *Snapshot) Norm() *tensor.Tensor { return s.normFor(program.NormInDeg) }
