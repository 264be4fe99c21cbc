package serve

import (
	"seastar/internal/program"
	"seastar/internal/tensor"
)

// Norm returns the snapshot's cached 1/in-degree normalizer, for the
// package's external tests (delta ≡ rebuild compares it).
func (s *Snapshot) Norm() *tensor.Tensor { return s.normFor(program.NormInDeg) }

// PoolStats returns the engine's tensor pool counters, for the request
// benchmark's misses per request.
func (e *Engine) PoolStats() tensor.PoolStats { return e.pool.Stats() }
