package main

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, dur = 2000.0, 500 * time.Millisecond
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, dur)
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	differs := len(a) != len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
		if a[i] >= dur {
			t.Fatalf("arrival %d at %v is past the phase length %v", i, a[i], dur)
		}
		if i < len(c) && a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds gave the same schedule")
	}
	// 1000 expected arrivals; a Poisson count strays a few √1000 at most.
	if want := rate * dur.Seconds(); float64(len(a)) < want-150 || float64(len(a)) > want+150 {
		t.Errorf("%d arrivals, want about %.0f", len(a), want)
	}
}

func TestFixedScheduleCount(t *testing.T) {
	s := fixedSchedule(5, 2*time.Second)
	if len(s) != 10 || s[0] != 100*time.Millisecond || s[9] != 1900*time.Millisecond {
		t.Errorf("fixedSchedule(5/s, 2s) = %v", s)
	}
}

// A stall in one operation must show in the latency of the requests that
// were due behind it: the generator keeps sending on schedule and counts
// from the due time, so nothing is omitted.
func TestOpenLoopShowsStallInLaterRequests(t *testing.T) {
	const stallAt, stall = 100, 5 * time.Millisecond
	sched := make([]time.Duration, 300)
	for i := range sched {
		sched[i] = time.Duration(i) * 500 * time.Microsecond // 2000/s
	}
	var server sync.Mutex // one request at a time
	res := runOpenLoop(sched, func(i int) bool {
		server.Lock()
		defer server.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return true
	})

	stalled := res.Samples[stallAt]
	sentDuringStall, slowed := 0, 0
	for _, s := range res.Samples[stallAt+1 : stallAt+9] {
		if s.Start < stalled.End {
			sentDuringStall++
		}
		if s.Latency() > time.Millisecond {
			slowed++
		}
	}
	// Eight requests fall due in the first 4 ms of the 5 ms stall.
	if sentDuringStall < 6 {
		t.Errorf("only %d of the 8 requests due during the stall were sent during it: the generator waited", sentDuringStall)
	}
	if slowed < 6 {
		t.Errorf("only %d of the 8 requests due during the stall show it in their latency", slowed)
	}
	if before := res.Samples[stallAt-10].Latency(); before > time.Millisecond {
		t.Logf("host is noisy: a request before the stall took %v", before)
	}
	for _, s := range res.Samples {
		if !s.OK || s.End < s.Start || s.Start < s.Due {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

// A system slower than the arrival rate never catches up; the phase must
// be declared invalid instead of reporting a latency that only measures
// how long the schedule was.
func TestOpenLoopTripsOnSlowHandler(t *testing.T) {
	sched := make([]time.Duration, 200)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond // 1000/s
	}
	var server sync.Mutex
	res := runOpenLoop(sched, func(int) bool {
		server.Lock()
		defer server.Unlock()
		time.Sleep(3 * time.Millisecond) // capacity ≈ 330/s
		return true
	})
	if !res.Growing {
		t.Error("backlog of a handler three times slower than the rate not reported as growing")
	}
	var invalid *invalidRound
	if !errors.As(res.Outcome(), &invalid) {
		t.Error("phase with a growing backlog accepted as valid")
	}

	// The same schedule against a handler that keeps up builds no backlog.
	// (Its lateness is the host's, so validity as a whole is not asserted.)
	if fast := runOpenLoop(sched, func(int) bool { return true }); fast.Growing {
		t.Error("backlog of a handler that keeps up reported as growing")
	}
}

func TestLatenessInvalidates(t *testing.T) {
	r := &openLoopResult{
		Samples:     []opSample{{Due: 0, Start: 0, End: time.Millisecond, OK: true}},
		LatenessP99: 3 * time.Millisecond,
	}
	if r.Outcome() == nil {
		t.Error("3 ms of generator lateness on 1 ms operations accepted")
	}
	r.LatenessP99 = 500 * time.Microsecond
	if err := r.Outcome(); err != nil {
		t.Errorf("0.5 ms of lateness rejected: %v", err)
	}
}

func TestClosedLoopCounts(t *testing.T) {
	res := runClosedLoop(4, 50*time.Millisecond, func(seq int) bool {
		time.Sleep(time.Millisecond)
		return seq%10 != 0
	})
	if res.OK == 0 || res.Failed == 0 {
		t.Fatalf("closed loop counted %d ok, %d failed", res.OK, res.Failed)
	}
	if got := res.OpsPerSec(); got <= 0 || got > 4*1000 {
		t.Errorf("4 callers of 1 ms ops gave %.0f ops/s", got)
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Errorf("closed loop ended after %v, before its 50ms", res.Elapsed)
	}
}
