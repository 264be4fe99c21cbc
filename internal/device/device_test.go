package device

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestProfileByName(t *testing.T) {
	for _, want := range []string{"V100", "2080Ti", "1080Ti"} {
		p, ok := ProfileByName(want)
		if !ok || p.Name != want {
			t.Fatalf("ProfileByName(%q) = %v, %v", want, p.Name, ok)
		}
	}
	if _, ok := ProfileByName("H100"); ok {
		t.Fatal("unknown profile must not resolve")
	}
}

func TestOccupancySmallBlocks(t *testing.T) {
	// The paper's example: 16-thread blocks cap occupancy at 25% on a
	// 1080Ti (32 blocks/SM × 16 threads = 512 of 2048 slots).
	occ := GTX1080Ti.Occupancy(16)
	if occ != 0.25 {
		t.Fatalf("1080Ti occupancy(16) = %v, want 0.25", occ)
	}
	if full := GTX1080Ti.Occupancy(256); full != 1.0 {
		t.Fatalf("1080Ti occupancy(256) = %v, want 1", full)
	}
}

func TestAllocFreePeak(t *testing.T) {
	d := New(Profile{Name: "tiny", GlobalMemBytes: 1000})
	a, err := d.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(500)
	if err != nil {
		t.Fatal(err)
	}
	if d.CurrentBytes() != 900 || d.PeakBytes() != 900 {
		t.Fatalf("cur=%d peak=%d", d.CurrentBytes(), d.PeakBytes())
	}
	a.Free()
	if d.CurrentBytes() != 500 || d.PeakBytes() != 900 {
		t.Fatalf("after free: cur=%d peak=%d", d.CurrentBytes(), d.PeakBytes())
	}
	a.Free() // double free is a no-op
	if d.CurrentBytes() != 500 {
		t.Fatal("double free changed accounting")
	}
	b.Free()
	if d.CurrentBytes() != 0 {
		t.Fatalf("final cur=%d", d.CurrentBytes())
	}
}

func TestAllocOOM(t *testing.T) {
	d := New(Profile{Name: "tiny", GlobalMemBytes: 1000})
	if _, err := d.Alloc(800); err != nil {
		t.Fatal(err)
	}
	_, err := d.Alloc(300)
	var oom *ErrOOM
	if !errors.As(err, &oom) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
	if oom.Requested != 300 || oom.InUse != 800 || oom.Capacity != 1000 {
		t.Fatalf("OOM fields: %+v", oom)
	}
	if oom.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestWorkScaleExtrapolatesMemory(t *testing.T) {
	d := NewScaled(Profile{Name: "tiny", GlobalMemBytes: 1000}, 0.1)
	// 50 physical bytes represent 500 logical bytes.
	if _, err := d.Alloc(50); err != nil {
		t.Fatal(err)
	}
	if d.CurrentBytes() != 500 {
		t.Fatalf("cur=%d", d.CurrentBytes())
	}
	// 60 more physical bytes → 600 logical → OOM at capacity 1000.
	if _, err := d.Alloc(60); err == nil {
		t.Fatal("expected extrapolated OOM")
	}
}

func TestNewScaledRejectsBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("scale %v must panic", s)
				}
			}()
			NewScaled(V100, s)
		}()
	}
}

func TestLaunchKernelAccumulatesTime(t *testing.T) {
	d := New(V100)
	dur := d.LaunchKernel(Launch{
		Name:               "k",
		Blocks:             1000,
		ThreadsPerBlock:    256,
		UniformBlockCycles: 1000,
		LoadBytes:          1 << 20,
	})
	if dur <= 0 {
		t.Fatal("kernel duration must be positive")
	}
	if d.Elapsed() != dur {
		t.Fatalf("elapsed %v != kernel %v", d.Elapsed(), dur)
	}
	st := d.Stats()
	if st.Kernels != 1 || st.LoadBytes != 1<<20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLaunchMemoryBound(t *testing.T) {
	// A kernel moving 1 GB with trivial compute must take ≈ 1/BW seconds.
	d := New(V100)
	d.LaunchKernel(Launch{
		Blocks:             1,
		ThreadsPerBlock:    256,
		UniformBlockCycles: 1,
		LoadBytes:          1 << 30,
	})
	wantNs := float64(1<<30) / V100.MemBandwidthGBs
	got := d.ElapsedNs()
	if got < wantNs || got > wantNs*1.1 {
		t.Fatalf("memory-bound time %v ns, want ≈ %v ns", got, wantNs)
	}
}

func TestLaunchAtomicBound(t *testing.T) {
	d := New(GTX1080Ti)
	d.LaunchKernel(Launch{
		Blocks:             1,
		ThreadsPerBlock:    256,
		UniformBlockCycles: 1,
		AtomicOps:          int64(GTX1080Ti.AtomicThroughput), // 1 second of atomics
	})
	secs := d.ElapsedNs() / 1e9
	if secs < 0.99 || secs > 1.1 {
		t.Fatalf("atomic-bound time %v s, want ≈ 1 s", secs)
	}
}

func TestLowOccupancyDegradesBandwidth(t *testing.T) {
	// Same bytes, tiny blocks on a device where 8-thread blocks yield
	// occupancy 0.125 → bandwidth fraction 0.5 → 2× slower than the
	// saturated case.
	p := Profile{
		Name: "t", SMCount: 1, CoresPerSM: 64, ClockGHz: 1,
		MemBandwidthGBs: 100, GlobalMemBytes: 1 << 30,
		MaxThreadsPerSM: 2048, MaxBlocksPerSM: 32, WarpSize: 32,
		AtomicThroughput: 1e9,
	}
	fast := New(p)
	fast.LaunchKernel(Launch{Blocks: 64, ThreadsPerBlock: 256, LoadBytes: 1 << 24})
	slow := New(p)
	slow.LaunchKernel(Launch{Blocks: 64, ThreadsPerBlock: 8, LoadBytes: 1 << 24})
	ratio := slow.ElapsedNs() / fast.ElapsedNs()
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("occupancy penalty ratio %v, want ≈ 2", ratio)
	}
}

func TestActiveThreadFracDegradesBandwidth(t *testing.T) {
	// Same launch, same bytes; a block with 1/256 active threads must be
	// memory-degraded by the 1/16 floor.
	base := Launch{Blocks: 64, ThreadsPerBlock: 256, LoadBytes: 1 << 24}
	full := New(V100)
	full.LaunchKernel(base)
	idle := New(V100)
	l := base
	l.ActiveThreadFrac = 1.0 / 256
	idle.LaunchKernel(l)
	ratio := idle.ElapsedNs() / full.ElapsedNs()
	if ratio < 12 || ratio > 20 {
		t.Fatalf("active-thread degradation ratio %.1f, want ≈ 16", ratio)
	}
	// Above 25% active threads there is no penalty.
	quarter := New(V100)
	l.ActiveThreadFrac = 0.25
	quarter.LaunchKernel(l)
	if quarter.ElapsedNs() != full.ElapsedNs() {
		t.Fatalf("25%% active should be unpenalized: %v vs %v",
			quarter.ElapsedNs(), full.ElapsedNs())
	}
}

func TestMakespanStaticVsDynamicSkew(t *testing.T) {
	// One huge block followed by many small ones: dynamic (hardware)
	// scheduling overlaps the straggler; static striping also puts the
	// big block alone on a slot, but if the skew lands mid-array the
	// static stripes pile up. Construct a case where a stripe gets two
	// big blocks.
	cycles := make([]float64, 8)
	for i := range cycles {
		cycles[i] = 1
	}
	cycles[0], cycles[4] = 100, 100 // same stripe when nSlots=4
	at := func(i int) float64 { return cycles[i] }
	dyn := makespan(at, 8, 4, SchedHardware)
	st := makespan(at, 8, 4, SchedStatic)
	if dyn != 101 {
		t.Fatalf("dynamic makespan %v, want 101", dyn)
	}
	if st != 200 {
		t.Fatalf("static makespan %v, want 200", st)
	}
}

func TestMakespanFewBlocks(t *testing.T) {
	at := func(i int) float64 { return float64(i + 1) }
	if got := makespan(at, 3, 10, SchedHardware); got != 3 {
		t.Fatalf("few-blocks makespan %v, want 3", got)
	}
	if got := makespan(at, 0, 10, SchedHardware); got != 0 {
		t.Fatalf("zero-blocks makespan %v", got)
	}
}

func TestAtomicSchedulingCostsMore(t *testing.T) {
	d1 := New(V100)
	d2 := New(V100)
	l := Launch{Blocks: 100000, ThreadsPerBlock: 256, UniformBlockCycles: 50}
	l.Sched = SchedHardware
	d1.LaunchKernel(l)
	l.Sched = SchedAtomic
	d2.LaunchKernel(l)
	if d2.ElapsedNs() <= d1.ElapsedNs() {
		t.Fatalf("atomic scheduling (%v ns) must cost more than hardware (%v ns)",
			d2.ElapsedNs(), d1.ElapsedNs())
	}
}

func TestSchedModeString(t *testing.T) {
	if SchedHardware.String() != "hardware" || SchedAtomic.String() != "atomic" ||
		SchedStatic.String() != "static" || SchedMode(9).String() == "" {
		t.Fatal("SchedMode String broken")
	}
}

func TestQuickMakespanBounds(t *testing.T) {
	// For any workload, makespan is between max(work) and sum(work) under
	// either scheduling policy, and greedy dispatch is within the classic
	// 2x list-scheduling bound of the lower bound max(maxWork, sum/slots).
	f := func(seed int64, nBlocks, nSlots uint8) bool {
		b := int(nBlocks%32) + 1
		s := int(nSlots%8) + 1
		work := make([]float64, b)
		x := uint64(seed)
		var sum, maxW float64
		for i := range work {
			x = x*6364136223846793005 + 1442695040888963407
			w := float64(x%1000) + 1
			work[i] = w
			sum += w
			if w > maxW {
				maxW = w
			}
		}
		at := func(i int) float64 { return work[i] }
		dyn := makespan(at, b, s, SchedHardware)
		st := makespan(at, b, s, SchedStatic)
		if dyn < maxW-1e-9 || dyn > sum+1e-9 {
			return false
		}
		if st < maxW-1e-9 || st > sum+1e-9 {
			return false
		}
		lower := sum / float64(s)
		if maxW > lower {
			lower = maxW
		}
		return dyn <= 2*lower+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
