package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Load generators. An open loop sends on a schedule whatever the system
// does, as independent users would; latency counts from the instant a
// request was due, so a stall shows in the requests that arrived behind
// it. A closed loop parks a fixed number of callers that each wait for
// their reply, and measures throughput.

// minLatenessLimit is the generator-lateness p99 every open-loop phase is
// allowed. Generator and system share the host's cores, so a dispatch due
// while every core runs a kernel waits for one; beyond this floor the
// limit is half the phase's own latency p99 (see Outcome).
const minLatenessLimit = 2 * time.Millisecond

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var sched []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return sched
		}
		sched = append(sched, due)
	}
}

// fixedSchedule returns evenly spaced due offsets, the first half an
// interval in. Few, heavy operations (deltas) use it so that every run
// has the same number of them.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	var sched []time.Duration
	for due := gap / 2; due < dur; due += gap {
		sched = append(sched, due)
	}
	return sched
}

// opSample is one open-loop operation, as offsets from the phase start.
type opSample struct {
	Due, Start, End time.Duration
	OK              bool
}

// Latency is counted from the due time, not from the dispatch.
func (s opSample) Latency() time.Duration { return s.End - s.Due }

type openLoopResult struct {
	Samples     []opSample
	LatenessP99 time.Duration
	// Growing reports that the backlog was still growing when the schedule
	// ended: the system is slower than the rate and latency has no
	// steady-state value.
	Growing bool
}

// slowerThan counts the responses whose latency exceeded limit.
func (r *openLoopResult) slowerThan(limit time.Duration) int {
	n := 0
	for _, s := range r.Samples {
		if s.Latency() > limit {
			n++
		}
	}
	return n
}

// Outcome is nil for a phase that can be used and an *invalidRound
// otherwise: the generator ran late by more than half of the latency it
// was measuring (lateness is part of every latency, which counts from the
// due time), or the system never caught up with the rate.
func (r *openLoopResult) Outcome() error {
	limit := max(minLatenessLimit, time.Duration(percentile(latenciesMs(r.Samples), 99)*float64(time.Millisecond))/2)
	if r.LatenessP99 > limit {
		return &invalidRound{fmt.Sprintf("generator lateness p99 %v exceeds %v", r.LatenessP99, limit)}
	}
	if r.Growing {
		return &invalidRound{"backlog still growing at the end of the schedule"}
	}
	return nil
}

// invalidRound marks a round whose load generator, not the system, set
// the numbers; the runner repeats such a round.
type invalidRound struct{ why string }

func (e *invalidRound) Error() string { return "invalid round: " + e.why }

// runOpenLoop dispatches op(i) at sched[i] from a single goroutine and
// waits for all of them. Every op runs on a goroutine of its own, so a
// slow op delays no later dispatch.
func runOpenLoop(sched []time.Duration, op func(i int) bool) *openLoopResult {
	res := &openLoopResult{Samples: make([]opSample, len(sched))}
	backlog := make([]int64, len(sched))
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	// The dispatcher owns its thread: sleepPrecise blocks it in the kernel.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, due := range sched {
		if wait := due - time.Since(start); wait > 0 {
			sleepPrecise(wait)
		}
		s := &res.Samples[i]
		s.Due, s.Start = due, time.Since(start)
		backlog[i] = inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.OK = op(i)
			s.End = time.Since(start)
			inFlight.Add(-1)
		}(i)
	}
	wg.Wait()

	late := make([]float64, len(sched))
	for i, s := range res.Samples {
		late[i] = float64(s.Start - s.Due)
	}
	res.LatenessP99 = time.Duration(percentile(late, 99))
	res.Growing = backlogGrowing(backlog)
	return res
}

// backlogGrowing compares the median number in flight over the last
// quarter of the dispatches with that of the first half. A stationary
// queue keeps the two close; one that grows linearly makes the last
// quarter 3.5 times the first half. Medians, because a host stall is
// followed by a burst of overdue dispatches that says nothing about the
// system; the constant keeps queues of a few requests from tripping it.
func backlogGrowing(backlog []int64) bool {
	n := len(backlog)
	if n < 8 {
		return false
	}
	med := func(xs []int64) float64 {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		return median(fs)
	}
	return med(backlog[n-n/4:]) > 2*med(backlog[:n/2])+8
}

// latenciesMs returns the due-time latencies of the samples in ms.
func latenciesMs(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.Latency())
	}
	return out
}

type closedLoopResult struct {
	OK, Failed int
	Elapsed    time.Duration
}

// OpsPerSec is correct responses per second.
func (r closedLoopResult) OpsPerSec() float64 {
	return ratio(float64(r.OK), r.Elapsed.Seconds())
}

// runClosedLoop parks `callers` goroutines that each issue op back to
// back until dur has passed; an op started before the deadline runs to
// completion and counts. seq numbers the ops across callers.
func runClosedLoop(callers int, dur time.Duration, op func(seq int) bool) closedLoopResult {
	var ok, failed, seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				if op(int(seq.Add(1) - 1)) {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return closedLoopResult{OK: int(ok.Load()), Failed: int(failed.Load()), Elapsed: time.Since(start)}
}
