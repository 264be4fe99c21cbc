package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"seastar/internal/tensor"
)

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns this process's resident high-water mark (VmHWM) in
// MB, or 0 where /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// llcBytes returns the size of the largest cache /sys reports for cpu0,
// or 0 when it reports none.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// streamArrayBytes sizes each of the two copy arrays: 4 × LLC, at least
// 64 MiB, and at most 256 MiB so that a VM reporting its host's whole
// L3 does not make the probe allocate gigabytes.
func streamArrayBytes() int64 {
	n := 4 * llcBytes()
	if n < 64<<20 {
		n = 64 << 20
	}
	if n > 256<<20 {
		n = 256 << 20
	}
	return n
}

// streamGBps measures memory copy bandwidth: the best of three copies
// between two arrays of arrayBytes each, counting bytes read plus bytes
// written.
func streamGBps(arrayBytes int64) float64 {
	n := int(arrayBytes / 4)
	src := make([]float32, n)
	dst := make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	copy(dst, src) // touch every page of dst before timing
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		copy(dst, src)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	runtime.KeepAlive(dst)
	return 2 * float64(arrayBytes) / best.Seconds() / 1e9
}

// gemmGFLOPs times tensor.MatMul on [m,k]×[k,n] and returns the best
// achieved rate over reps runs.
func gemmGFLOPs(m, k, n, reps int) float64 {
	rng := rand.New(rand.NewSource(1))
	a := tensor.Randn(rng, 1, m, k)
	b := tensor.Randn(rng, 1, k, n)
	tensor.MatMul(a, b) // warm caches and the worker pool
	best := time.Duration(1 << 62)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		tensor.MatMul(a, b)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return 2 * float64(m) * float64(k) * float64(n) / best.Seconds() / 1e9
}

// hostValues measures the per-run host rows of the per-layer ledger.
func hostValues(sz *sizes) map[string]float64 {
	return map[string]float64{
		"host.cores":            float64(runtime.NumCPU()),
		"host.gomaxprocs":       float64(runtime.GOMAXPROCS(0)),
		"host.stream_gbps":      streamGBps(sz.StreamBytes),
		"host.gemm_peak_gflops": gemmGFLOPs(256, 256, 256, sz.GemmReps),
	}
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// size (Linux: "5" to /proc/self/clear_refs), so that every round reports
// a peak of its own. Where that is not possible the mark stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}
