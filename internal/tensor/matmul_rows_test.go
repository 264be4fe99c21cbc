package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// MatMulRowsLike must reproduce the full product's rows bit for bit on
// both dispatch paths, for any subset size (including tail tiles smaller
// than the register block) and non-multiple column counts.
func TestMatMulRowsLikeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name    string
		m, k, n int
	}{
		{"naive path", 12, 8, 8},          // 768 MACs < gemmSerialMACs
		{"blocked path", 300, 32, 16},     // 153k MACs
		{"blocked odd cols", 260, 24, 13}, // column tail
		{"blocked deep k", 40, 600, 16},   // two K-blocks
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Uniform(rng, -1, 1, tc.m, tc.k)
			b := Uniform(rng, -1, 1, tc.k, tc.n)
			full := MatMul(a, b)
			for _, sz := range []int{1, 3, 4, 7} {
				if sz > tc.m {
					continue
				}
				idx := make([]int32, sz)
				for i := range idx {
					idx[i] = int32(rng.Intn(tc.m))
				}
				got := MatMulRowsLike(GatherRows(a, idx), b, tc.m)
				for i, id := range idx {
					for j := 0; j < tc.n; j++ {
						g := math.Float32bits(got.At(i, j))
						w := math.Float32bits(full.At(int(id), j))
						if g != w {
							t.Fatalf("subset=%d row %d col %d: %08x != %08x", sz, id, j, g, w)
						}
					}
				}
			}
		})
	}
}

func TestMatMulSameKernel(t *testing.T) {
	if !MatMulSameKernel(100000, 100002, 16, 16) {
		t.Fatal("both far above the threshold must share a path")
	}
	if !MatMulSameKernel(3, 5, 4, 4) {
		t.Fatal("both far below the threshold must share a path")
	}
	// 32×32 product: m=31 → 31744 < 32768, m=33 → 33792 ≥ 32768.
	if MatMulSameKernel(31, 33, 32, 32) {
		t.Fatal("straddling the dispatch threshold must report unstable")
	}
}

// TMatMulRowsLike over the first r rows must give the full TMatMul's bits
// when the rows past r of one operand are zero: on both paths, across
// K-block boundaries, and when the r-row product alone would fall below
// the naive threshold while the full one does not (the dispatch replay a
// weight gradient over a small block's destination rows needs).
func TestTMatMulRowsLikeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name       string
		k, m, n, r int
	}{
		{"naive path", 40, 8, 8, 13},
		{"blocked, one K-block", 200, 64, 8, 150},
		{"blocked, prefix ends mid-block", 1800, 64, 8, 512},
		{"blocked, prefix is a whole block", 700, 64, 8, 256},
		{"replayed dispatch", 1800, 64, 8, 40}, // 40·64·8 MACs < gemmSerialMACs
		{"wide", 600, 16, 24, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := Uniform(rng, -1, 1, tc.k, tc.m)
			b := Uniform(rng, -1, 1, tc.k, tc.n)
			clear(b.Data()[tc.r*tc.n:])
			want := TMatMul(a, b)
			got := TMatMulRowsLike(a.TopRows(tc.r), b.TopRows(tc.r), tc.k)
			for i, w := range want.Data() {
				if math.Float32bits(got.Data()[i]) != math.Float32bits(w) {
					t.Fatalf("element %d: %v over %d rows, %v over all %d", i, got.Data()[i], tc.r, w, tc.k)
				}
			}
		})
	}
}
