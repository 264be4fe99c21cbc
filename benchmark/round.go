package main

import (
	"fmt"
	"math"
	"time"
)

// sizes fixes every workload's shape. "full" is what BENCHMARK.json's
// numbers are measured at; "tiny" exists for the smoke test only.
type sizes struct {
	Name   string
	Hidden int

	// Full-graph training: Table-2 dataset names and scales.
	GATDataset, GCNDataset string
	GATScale, GCNScale     float64
	WarmFull               int // warm-up epochs, part of set-up
	// GATEpochMs, GCNEpochMs and MBEpochMs are the epoch times of the seed
	// measurement, frozen. A training round times budget ÷ this many
	// epochs (timedEpochs), not "as many as fit": the same seed then does
	// the same work on every host and commit, which is what makes its peak
	// RSS and its garbage-collection pattern repeat.
	GATEpochMs, GCNEpochMs, MBEpochMs float64

	// Mini-batch training.
	MBVertices, MBBatch int
	MBFanOut            []int
	WarmMB              int

	// Serving: graph sizes, nodes per request, fixed open-loop rates
	// (requests/s) and closed-loop caller counts.
	SampledVertices, SampledNodes, SampledCallers int
	SampledRate                                   float64
	EmbedVertices, EmbedNodes, EmbedCallers       int
	EmbedRate, DeltaRate                          float64
	ShardVertices, ShardNodes, ShardCallers       int
	ShardRate                                     float64
	Resyncs                                       int
	// LimitMs is the serving workloads' latency limit: a response slower
	// than this counts as failed.
	LimitMs float64

	StreamBytes int64
	GemmReps    int
}

// openShare is the share of a serving round spent in the open-loop
// phase; the rest is the closed loop.
const openShare = 0.5

var fullSizes = sizes{
	Name: "full", Hidden: 64,
	GATDataset: "amz_photo", GATScale: 1,
	GCNDataset: "ca_cs", GCNScale: 0.5,
	WarmFull: 3, GATEpochMs: 300, GCNEpochMs: 290, MBEpochMs: 340,
	MBVertices: 50000, MBBatch: 512, MBFanOut: []int{10, 5}, WarmMB: 2,
	SampledVertices: 100000, SampledNodes: 16, SampledCallers: 16, SampledRate: 1000,
	EmbedVertices: 100000, EmbedNodes: 64, EmbedCallers: 16, EmbedRate: 2000, DeltaRate: 5,
	ShardVertices: 50000, ShardNodes: 16, ShardCallers: 2, ShardRate: 1000, Resyncs: 3,
	LimitMs: 300, StreamBytes: streamArrayBytes(), GemmReps: 20,
}

var tinySizes = sizes{
	Name: "tiny", Hidden: 8,
	GATDataset: "cora", GATScale: 0.1,
	GCNDataset: "cora", GCNScale: 0.1,
	WarmFull: 1, GATEpochMs: 50, GCNEpochMs: 50, MBEpochMs: 50,
	MBVertices: 1500, MBBatch: 256, MBFanOut: []int{4, 2}, WarmMB: 1,
	SampledVertices: 1500, SampledNodes: 4, SampledCallers: 4, SampledRate: 400,
	EmbedVertices: 1500, EmbedNodes: 8, EmbedCallers: 4, EmbedRate: 400, DeltaRate: 40,
	ShardVertices: 1500, ShardNodes: 4, ShardCallers: 2, ShardRate: 300, Resyncs: 1,
	LimitMs: 1000, StreamBytes: 1 << 20, GemmReps: 2,
}

// roundCtx carries one round's parameters in and its results out.
type roundCtx struct {
	Workload string
	Seed     int64
	Sz       *sizes
	// Budget is how long the round's timed section measures.
	Budget time.Duration
	// Trace turns obs on for the round and records bench-side spans; the
	// end-to-end numbers of such a round are used only for the overhead
	// ratio.
	Trace bool
	Rec   *recorder

	checker
	Values map[string]float64
}

func (rc *roundCtx) set(name string, v float64) { rc.Values[name] = v }

// timedEpochs is how many epochs a training round times: the round's
// budget over the workload's frozen epoch time, and never fewer than 3,
// the least a median rests on.
func (rc *roundCtx) timedEpochs(epochMs float64) int {
	return max(3, int(math.Round(ms(rc.Budget)/epochMs)))
}

// checker counts operations and correctness checks: every one attempted,
// and every error, refusal, late or wrong answer as failed.
type checker struct {
	Attempted, Failed int
	Notes             []string
}

// ok counts one operation or check and notes why it failed.
func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.Attempted++
	if !cond {
		c.Failed++
		if len(c.Notes) < 20 {
			c.Notes = append(c.Notes, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// tally adds ops counted elsewhere (load-generator phases).
func (c *checker) tally(ok, failed int) {
	c.Attempted += ok + failed
	c.Failed += failed
}

// firstDiff returns the first index at which got and want are not the
// same float32 bit pattern, or -1 when they are equal throughout. A
// length mismatch differs at the shorter length.
func firstDiff(got, want []float32) int {
	for i := 0; i < len(got) && i < len(want); i++ {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// bitwise checks that got and want are the same float32 bit patterns.
func (c *checker) bitwise(what string, got, want []float32) bool {
	i := firstDiff(got, want)
	return c.ok(i < 0, "%s: differs at value %d of %d (want %d values)", what, i, len(got), len(want))
}

// within checks |got−want| ≤ rtol·max(|got|,|want|) + rtol·1e-2 element by
// element; the absolute term keeps values near zero from failing on
// rounding alone.
func (c *checker) within(what string, got, want []float32, rtol float64) bool {
	if len(got) != len(want) {
		return c.ok(false, "%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) || math.Abs(g-w) > rtol*math.Max(math.Abs(g), math.Abs(w))+rtol*1e-2 {
			return c.ok(false, "%s: value %d is %v, want %v (rtol %g)", what, i, got[i], want[i], rtol)
		}
	}
	return c.ok(true, "")
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
