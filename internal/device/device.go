package device

import (
	"fmt"
	"time"
)

// SchedMode selects how blocks are dispatched to SM slots (§6.3.3).
type SchedMode int

const (
	// SchedHardware relies on the hardware block scheduler: blocks are
	// issued in block-id order to the first SM slot that frees up
	// ("FA+Sorting+Dynamic" in the paper). No extra cost.
	SchedHardware SchedMode = iota
	// SchedAtomic uses a persistent-thread loop with a global atomic
	// counter; same dispatch order as SchedHardware but each block pays
	// an atomic fetch on global memory.
	SchedAtomic
	// SchedStatic stripes blocks across slots up front (no stealing):
	// slot s runs blocks s, s+S, s+2S, ... regardless of imbalance.
	SchedStatic
)

func (m SchedMode) String() string {
	switch m {
	case SchedHardware:
		return "hardware"
	case SchedAtomic:
		return "atomic"
	case SchedStatic:
		return "static"
	default:
		return fmt.Sprintf("SchedMode(%d)", int(m))
	}
}

// Launch describes one kernel invocation's cost to the simulator.
//
// BlockCycles, when non-nil, gives the serial-path length of each block in
// core cycles (the maximum over the block's concurrently executing thread
// groups of their sequential work). When nil, every block is assumed to
// take UniformBlockCycles. Load/store bytes must already be
// coalescing-adjusted by the kernel (an uncoalesced 4-byte access should be
// charged at the profile's CacheLineBytes).
type Launch struct {
	Name               string
	Blocks             int
	ThreadsPerBlock    int
	BlockCycles        []float64
	UniformBlockCycles float64
	LoadBytes          int64
	StoreBytes         int64
	AtomicOps          int64
	Sched              SchedMode
	// ActiveThreadFrac is the fraction of a block's threads that issue
	// work (0 means 1). Memory parallelism — and with it sustainable
	// bandwidth — degrades when most threads idle, e.g. a 256-thread
	// block serving a single width-1 vertex ("Basic" in Figure 12).
	ActiveThreadFrac float64
}

// Stats aggregates simulated activity on a device.
type Stats struct {
	Kernels     int64
	LoadBytes   int64
	StoreBytes  int64
	AtomicOps   int64
	ComputeNs   float64
	MemoryNs    float64
	AtomicNs    float64
	LaunchNs    float64
	TotalCycles float64
}

// Device is one simulated GPU: a clock, an allocator, and stat counters.
type Device struct {
	Profile Profile
	// WorkScale is the fraction of the full-size workload actually
	// instantiated (1 = full scale). Simulated time and logical memory
	// are extrapolated by 1/WorkScale so that reduced-scale datasets
	// still reproduce full-scale figures, including OOM thresholds.
	WorkScale float64

	elapsedNs float64
	curBytes  int64
	peakBytes int64
	stats     Stats
	trace     []KernelRecord
}

// New creates a device with the given profile at full work scale.
func New(p Profile) *Device { return &Device{Profile: p, WorkScale: 1} }

// NewScaled creates a device extrapolating a reduced-scale workload.
func NewScaled(p Profile, workScale float64) *Device {
	if workScale <= 0 || workScale > 1 {
		panic(fmt.Sprintf("device: WorkScale must be in (0,1], got %v", workScale))
	}
	return &Device{Profile: p, WorkScale: workScale}
}

func (d *Device) scale() float64 {
	if d.WorkScale == 0 {
		return 1
	}
	return 1 / d.WorkScale
}

// Buffer is a device-memory allocation record.
type Buffer struct {
	dev   *Device
	bytes int64
	freed bool
}

// ErrOOM is returned when an allocation exceeds device memory.
type ErrOOM struct {
	Device    string
	Requested int64
	InUse     int64
	Capacity  int64
}

func (e *ErrOOM) Error() string {
	return fmt.Sprintf("device %s: out of memory: requested %d B with %d B in use of %d B",
		e.Device, e.Requested, e.InUse, e.Capacity)
}

// Alloc reserves bytes of device memory (pre-extrapolation; the logical
// size is bytes/WorkScale). It returns ErrOOM when capacity is exceeded,
// reproducing the paper's OOM results without touching host RAM.
func (d *Device) Alloc(bytes int64) (*Buffer, error) {
	logical := int64(float64(bytes) * d.scale())
	if d.curBytes+logical > d.Profile.GlobalMemBytes {
		return nil, &ErrOOM{
			Device:    d.Profile.Name,
			Requested: logical,
			InUse:     d.curBytes,
			Capacity:  d.Profile.GlobalMemBytes,
		}
	}
	d.curBytes += logical
	if d.curBytes > d.peakBytes {
		d.peakBytes = d.curBytes
	}
	return &Buffer{dev: d, bytes: logical}, nil
}

// MustAlloc is Alloc but panics on OOM; for fixed-size model state that the
// experiment setup guarantees to fit.
func (d *Device) MustAlloc(bytes int64) *Buffer {
	b, err := d.Alloc(bytes)
	if err != nil {
		panic(err)
	}
	return b
}

// Free releases a buffer. Double frees are ignored.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.freed = true
	b.dev.curBytes -= b.bytes
}

// CurrentBytes returns logical bytes currently allocated.
func (d *Device) CurrentBytes() int64 { return d.curBytes }

// PeakBytes returns the logical high-water mark.
func (d *Device) PeakBytes() int64 { return d.peakBytes }

// Elapsed returns total simulated time.
func (d *Device) Elapsed() time.Duration { return time.Duration(d.elapsedNs) }

// ElapsedNs returns total simulated time in nanoseconds.
func (d *Device) ElapsedNs() float64 { return d.elapsedNs }

// Stats returns a copy of the aggregated counters.
func (d *Device) Stats() Stats { return d.stats }

// HostSync charges host-side time that serializes with the device —
// framework overhead such as per-relation subgraph slicing in baseline
// heterogeneous training. It is not scaled by WorkScale (host overhead
// does not shrink with the dataset).
func (d *Device) HostSync(ns float64) {
	d.elapsedNs += ns
}

// siftDown restores the min-heap property of the earliest-free-slot heap
// rooted at i. A concrete float64 heap keeps the per-block dispatch loop
// free of interface calls; the comparison sequence matches container/heap,
// so the greedy schedule (and its makespan) is unchanged.
func siftDown(h []float64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if !(h[m] < h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// makespan simulates dispatching blocks (in id order) onto nSlots SM block
// slots and returns the finishing time in cycles. Hardware and atomic
// scheduling greedily assign each block to the earliest-free slot, which is
// how the paper exploits the correlation between block id and schedule
// time (§6.3.3); static scheduling stripes blocks over slots up front.
func makespan(cycles func(i int) float64, blocks, nSlots int, sched SchedMode) float64 {
	if blocks <= 0 {
		return 0
	}
	if nSlots < 1 {
		nSlots = 1
	}
	if sched == SchedStatic {
		// Slot s executes blocks s, s+nSlots, ... sequentially.
		sums := make([]float64, nSlots)
		for i := 0; i < blocks; i++ {
			sums[i%nSlots] += cycles(i)
		}
		var maxSum float64
		for _, s := range sums {
			if s > maxSum {
				maxSum = s
			}
		}
		return maxSum
	}
	if blocks <= nSlots {
		var maxC float64
		for i := 0; i < blocks; i++ {
			if c := cycles(i); c > maxC {
				maxC = c
			}
		}
		return maxC
	}
	h := make([]float64, nSlots)
	for i := 0; i < nSlots; i++ {
		h[i] = cycles(i)
	}
	for i := nSlots/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := nSlots; i < blocks; i++ {
		h[0] += cycles(i)
		siftDown(h, 0)
	}
	var maxT float64
	for _, t := range h {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// LaunchKernel charges one kernel to the device clock and returns its
// simulated duration. The time model is a roofline: the maximum of
// (a) block-scheduling makespan over SM slots converted by the core clock,
// (b) memory time at occupancy-degraded bandwidth, and (c) atomic
// serialization time; plus fixed launch overhead.
func (d *Device) LaunchKernel(l Launch) time.Duration {
	p := d.Profile
	nSlots := p.SMCount * p.blocksPerSM(l.ThreadsPerBlock)

	cyclesAt := func(i int) float64 { return l.UniformBlockCycles }
	if l.BlockCycles != nil {
		cyclesAt = func(i int) float64 { return l.BlockCycles[i] }
	}
	atomicPerBlock := 0.0
	if l.Sched == SchedAtomic {
		// Persistent-thread work counter: one contended global atomic
		// (~400 cycle latency) per block fetch.
		atomicPerBlock = 400
	}
	span := makespan(func(i int) float64 { return cyclesAt(i) + atomicPerBlock }, l.Blocks, nSlots, l.Sched)

	computeNs := span / p.ClockGHz

	occ := p.Occupancy(l.ThreadsPerBlock)
	// Bandwidth saturates once enough warps are resident to hide latency;
	// below ~25% occupancy it degrades proportionally.
	bwFrac := occ * 4
	if bwFrac > 1 {
		bwFrac = 1
	}
	// Idle threads issue no loads: below 25% active threads the number
	// of outstanding requests cannot hide DRAM latency (floored at 1/16,
	// the single-warp-per-block limit).
	if af := l.ActiveThreadFrac; af > 0 && af < 1 {
		f := 4 * af
		if f > 1 {
			f = 1
		}
		if f < 1.0/16 {
			f = 1.0 / 16
		}
		bwFrac *= f
	}
	bytes := float64(l.LoadBytes + l.StoreBytes)
	memNs := bytes / (p.MemBandwidthGBs * bwFrac) // GB/s == B/ns
	atomNs := float64(l.AtomicOps) / p.AtomicThroughput * 1e9

	busyNs := computeNs
	if memNs > busyNs {
		busyNs = memNs
	}
	if atomNs > busyNs {
		busyNs = atomNs
	}
	s := d.scale()
	totalNs := busyNs*s + p.KernelLaunchNs

	d.record(l, d.elapsedNs, totalNs)
	d.elapsedNs += totalNs
	d.stats.Kernels++
	d.stats.LoadBytes += int64(float64(l.LoadBytes) * s)
	d.stats.StoreBytes += int64(float64(l.StoreBytes) * s)
	d.stats.AtomicOps += int64(float64(l.AtomicOps) * s)
	d.stats.ComputeNs += computeNs * s
	d.stats.MemoryNs += memNs * s
	d.stats.AtomicNs += atomNs * s
	d.stats.LaunchNs += p.KernelLaunchNs
	d.stats.TotalCycles += span * s
	return time.Duration(totalNs)
}
