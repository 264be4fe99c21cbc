package tensor

import (
	"math"
	"math/rand"
	"testing"

	"seastar/internal/sched"
)

// eachSIMDMode runs f once with the portable kernels and, on hosts that
// have them, once with the vector kernels, restoring the process's mode.
func eachSIMDMode(t testing.TB, f func(mode string)) {
	orig := simdOn
	defer SetSIMD(orig)
	for _, on := range []bool{false, true} {
		if on && !simdAvailable {
			continue
		}
		SetSIMD(on)
		f(gemmName)
	}
}

// TestThinGemmBitwise pins that reading A in place changes no bit: for
// every one-panel product (n ≤ 16) the driver's result — in-place A, the
// 8-wide kernel for n ≤ 8, row chunks on the scheduler — equals the
// packed, serial path on the active wide kernel, which is what every
// product ran before the in-place path existed. It covers the three
// layouts, row counts below, at and well past one register tile, and K
// spans on both sides of the gemmKC block boundary.
func TestThinGemmBitwise(t *testing.T) {
	type shape struct{ m, k int }
	var shapes []shape
	for _, m := range []int{1, 2, 3, 4, 5, 64} {
		for _, k := range []int{1, 7, 64, 255, 256, 257, 700} {
			shapes = append(shapes, shape{m, k})
		}
	}
	shapes = append(shapes, shape{4345, 64}, shape{4345, 257})
	rng := rand.New(rand.NewSource(29))
	eachSIMDMode(t, func(mode string) {
		for _, sh := range shapes {
			for n := 1; n <= 16; n++ {
				m, k := sh.m, sh.k
				a := Randn(rng, 1, m, k)
				b := Randn(rng, 1, k, n)
				at, bt := transpose(a), transpose(b)
				for _, l := range []struct {
					name           string
					a, b           *Tensor
					transA, transB bool
				}{
					{"MatMul", a, b, false, false},
					{"MatMulT", a, bt, false, true},
					{"TMatMul", at, b, true, false},
				} {
					want := New(m, n)
					gemmWith(gemmMicro, gemmNR, false, want.data, l.a.data, l.b.data, m, k, n, l.transA, l.transB, true)
					got := New(m, n)
					gemm(got.data, l.a.data, l.b.data, m, k, n, l.transA, l.transB, false)
					for i := range want.data {
						if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
							t.Fatalf("%s %s m=%d k=%d n=%d elem %d: %08x in place vs %08x packed",
								mode, l.name, m, k, n, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
						}
					}
				}
			}
		}
	})
}

// TestSingleColumnMatMulBitwise pins the small single-column product
// (refMatMulImpl, eight rows in lockstep on AVX2 hosts) to refMatMulInto
// bit for bit, across row counts around the 8-row lockstep, inner widths
// with and without a column tail, and special values.
func TestSingleColumnMatMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specials := []float32{
		float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, 3.4e38,
	}
	eachSIMDMode(t, func(mode string) {
		for _, m := range []int{0, 1, 7, 8, 9, 17, 200} {
			for _, k := range []int{1, 7, 8, 9, 64, 65} {
				a := Randn(rng, 1, m, k)
				b := Randn(rng, 1, k, 1)
				if m > 0 {
					a.data[rng.Intn(len(a.data))] = specials[rng.Intn(len(specials))]
					for p := 0; p < k; p++ {
						a.data[p] = float32(math.Copysign(0, -1)) // row 0: every product is ±0
					}
				}
				want := New(m, 1)
				refMatMulInto(want.data, a.data, b.data, m, k, 1)
				got := MatMul(a, b)
				for i := range want.data {
					if !sameF32(got.data[i], want.data[i]) {
						t.Fatalf("%s m=%d k=%d row %d: %08x vs reference %08x",
							mode, m, k, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
					}
				}
			}
		}
	})
}

// TestGemmAllocsFlat pins that a warmed product allocates a fixed number
// of objects however many K-blocks and rows it has: the packing buffer,
// the A block and the tail tile are reused, not allocated per call,
// K-block or row chunk.
func TestGemmAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	defer sched.SetMaxProcs(sched.SetMaxProcs(2))
	rng := rand.New(rand.NewSource(37))
	eachSIMDMode(t, func(mode string) {
		for _, l := range []string{"MatMul", "MatMulT", "TMatMul"} {
			allocs := func(m, k, n int) float64 {
				a, b := Randn(rng, 1, m, k), Randn(rng, 1, k, n)
				at, bt := transpose(a), transpose(b)
				out := New(m, n)
				return testing.AllocsPerRun(10, func() {
					clear(out.data)
					switch l {
					case "MatMul":
						MatMul(a, b, out)
					case "MatMulT":
						MatMulT(a, bt, out)
					default:
						TMatMul(at, b, out)
					}
				})
			}
			base := allocs(256, 300, 8)
			for _, sh := range [][3]int{{256, 1300, 8}, {2048, 300, 8}, {256, 300, 40}} {
				if got := allocs(sh[0], sh[1], sh[2]); got != base {
					t.Errorf("%s %s m=%d k=%d n=%d: %v allocs per call, %v at m=256 k=300 n=8",
						mode, l, sh[0], sh[1], sh[2], got, base)
				}
			}
			if base > 2 {
				t.Errorf("%s %s: %v allocs per warmed call, want at most 2", mode, l, base)
			}
		}
	})
}

// BenchmarkThinGemm times the narrow products of a mini-batch SAGE step
// and of serving: the [B,64]·[64,8] forward, the [B,64]ᵀ·[B,8] weight
// gradient and a sampled request's [200,64]·[64,8].
func BenchmarkThinGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		name    string
		m, k, n int
		transA  bool
	}{
		{"matmul-4345x64x8", 4345, 64, 8, false},
		{"tmatmul-64x4345x8", 64, 4345, 8, true},
		{"matmul-200x64x8", 200, 64, 8, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := Randn(rng, 1, c.m, c.k)
			if c.transA {
				x = transpose(x)
			}
			w := Randn(rng, 1, c.k, c.n)
			out := New(c.m, c.n)
			b.ReportAllocs()
			b.SetBytes(int64(4 * (c.m*c.k + c.k*c.n + c.m*c.n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(out.data)
				if c.transA {
					TMatMul(x, w, out)
				} else {
					MatMul(x, w, out)
				}
			}
			b.ReportMetric(float64(2*c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
