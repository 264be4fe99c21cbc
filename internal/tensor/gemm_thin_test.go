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

// TestGemmInPlaceBitwise pins that reading A in place changes no bit, at
// every panel count: the driver's result — every full 4-row block read
// where it lies, the 8-wide kernel for n ≤ 8, row chunks on the scheduler
// — equals a reference that computes each output row alone through gemm
// with m = 1. A one-row product is a tail block, so the reference always
// runs the packed, zero-padded path, and rows of a product are
// independent. It covers the three layouts, row counts below, at and well
// past one register tile, K spans on both sides of the gemmKC block
// boundary, and widths from one panel to several with and without a
// column tail.
func TestGemmInPlaceBitwise(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 32, 33, 48, 64, 100}
	type shape struct {
		m, k int
		ns   []int
	}
	var shapes []shape
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for _, k := range []int{1, 7, 64, 255, 256, 257, 700} {
			shapes = append(shapes, shape{m, k, widths})
		}
	}
	// Many row chunks on the scheduler. The row-by-row reference runs a
	// padded 4-row tile and packs all of B for every row, so these take a
	// few widths only: one panel, and several with a column tail.
	shapes = append(shapes, shape{4345, 64, []int{8}}, shape{4345, 257, []int{17, 33}})
	rng := rand.New(rand.NewSource(29))
	eachSIMDMode(t, func(mode string) {
		for _, sh := range shapes {
			m, k := sh.m, sh.k
			a := Randn(rng, 1, m, k)
			at := transpose(a)
			col := make([]float32, k)
			for _, n := range sh.ns {
				b := Randn(rng, 1, k, n)
				bt := transpose(b)
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
					for i := 0; i < m; i++ {
						row := a.data[i*k : (i+1)*k]
						if l.transA {
							for p := range col {
								col[p] = at.data[p*m+i]
							}
							row = col
						}
						gemm(want.data[i*n:(i+1)*n], row, l.b.data, 1, k, n, l.transA, l.transB, true)
					}
					got := New(m, n)
					gemm(got.data, l.a.data, l.b.data, m, k, n, l.transA, l.transB, false)
					for i := range want.data {
						if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
							t.Fatalf("%s %s m=%d k=%d n=%d elem %d: %08x in place vs %08x packed row by row",
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
	benchGemm(b, 41, []gemmBench{
		{"matmul-4345x64x8", 4345, 64, 8, false},
		{"tmatmul-64x4345x8", 64, 4345, 8, true},
		{"matmul-200x64x8", 200, 64, 8, false},
	})
}
