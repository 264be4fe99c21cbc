package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestVecMulAddBitwise proves the vector VecMulAdd backend is bitwise
// identical to the portable one — including the non-fused rounding the
// specialized kernels rely on (mul rounded, then add rounded) — across
// lengths that cover the 8-wide vector body and its scalar tail, and
// across special values (negative zero, infinities, NaN, denormals).
func TestVecMulAddBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, 3.4e38, 1e-39,
	}
	scales := append([]float32{0.3, -2.5}, specials...)
	for _, s := range scales {
		for n := 0; n <= 67; n++ {
			dst := make([]float32, n)
			src := make([]float32, n)
			for i := range dst {
				dst[i] = rng.Float32()*4 - 2
				src[i] = rng.Float32()*4 - 2
			}
			if n > 0 {
				dst[rng.Intn(n)] = specials[rng.Intn(len(specials))]
				src[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
			want := append([]float32(nil), dst...)
			vecMulAddGo(want, src, s)

			got := append([]float32(nil), dst...)
			VecMulAdd(got, src, s)
			for i := range got {
				gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
				gn, wn := math.IsNaN(float64(got[i])), math.IsNaN(float64(want[i]))
				if gb != wb && !(gn && wn) {
					t.Fatalf("s=%g n=%d elem %d: active %08x vs portable %08x", s, n, i, gb, wb)
				}
			}
		}
	}
}

// TestVecMulAddNotFused feeds VecMulAdd operands where a fused
// multiply-add produces a different float32 than separate rounding: if
// either backend ever compiles to FMA, this catches it.
func TestVecMulAddNotFused(t *testing.T) {
	// With s = 1+2^-23 and src = 1-2^-23, the exact product 1-2^-46
	// rounds to 1.0f in float32; dst = -1 then sums to exactly 0. An FMA
	// keeps the exact product and yields -2^-46 instead.
	s := float32(1 + 1.0/(1<<23))
	src := make([]float32, 16)
	dst := make([]float32, 16)
	for i := range src {
		src[i] = float32(1 - 1.0/(1<<23))
		dst[i] = -1
	}
	VecMulAdd(dst, src, s)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("elem %d: got %g, want 0 — VecMulAdd appears to fuse the multiply-add", i, v)
		}
	}
}

// sameF32 reports bitwise equality, treating all NaNs as equal.
func sameF32(a, b float32) bool {
	if math.Float32bits(a) == math.Float32bits(b) {
		return true
	}
	return math.IsNaN(float64(a)) && math.IsNaN(float64(b))
}

// TestGatherMulAddBitwise proves the batched gather-accumulate is bitwise
// identical to its reference form — one portable VecMulAdd per edge in
// edge order — across row widths covering the 16- and 8-wide register
// paths, the generic fallback, special values, and repeated indices
// (multi-edges hitting the same source row).
func TestGatherMulAddBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, 3.4e38, 1e-39,
	}
	for _, w := range []int{1, 3, 8, 16, 24, 32} {
		for _, n := range []int{0, 1, 5, 8, 9, 33, 200} {
			rows := 50
			src := make([]float32, rows*w)
			for i := range src {
				src[i] = rng.Float32()*4 - 2
			}
			src[rng.Intn(len(src))] = specials[rng.Intn(len(specials))]
			idx := make([]int32, n)
			scale := make([]float32, n)
			for e := range idx {
				idx[e] = int32(rng.Intn(rows))
				scale[e] = rng.Float32()*4 - 2
			}
			if n > 0 {
				scale[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
			acc := make([]float32, w)
			for j := range acc {
				acc[j] = rng.Float32()*4 - 2
			}
			want := append([]float32(nil), acc...)
			for e, ix := range idx {
				vecMulAddGo(want, src[int(ix)*w:int(ix)*w+w], scale[e])
			}
			got := append([]float32(nil), acc...)
			GatherMulAdd(got, src, idx, scale)
			for j := range got {
				if !sameF32(got[j], want[j]) {
					t.Fatalf("w=%d n=%d elem %d: active %08x vs reference %08x",
						w, n, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}

// TestGatherDotBitwise proves both GatherDot backends equal the
// definitional loop — product rounded to float32, folded from +0 for j
// ascending — across widths covering the sub-vector case, exact 8-column
// tiles and a scalar column tail; edge counts covering every remainder of
// the 4- and 8-edge lockstep; repeated and all-zero index vectors (the
// row-constant operand form); and special values, including whole rows of
// −0 products whose sum must be +0.
func TestGatherDotBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{
		0, negZero, 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, 3.4e38, 1e-39,
	}
	for _, w := range []int{1, 3, 7, 8, 9, 16, 24, 64, 65} {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
			rows := 20
			a := make([]float32, rows*w)
			b := make([]float32, rows*w)
			for i := range a {
				a[i] = rng.Float32()*4 - 2
				b[i] = rng.Float32()*4 - 2
			}
			for k := 0; k < 6; k++ {
				a[rng.Intn(len(a))] = specials[rng.Intn(len(specials))]
				b[rng.Intn(len(b))] = specials[rng.Intn(len(specials))]
			}
			for j := 0; j < w; j++ {
				a[j] = negZero // row 0 of a: every product is ±0
			}
			ai := make([]int32, n)
			bi := make([]int32, n)
			for e := range ai {
				ai[e] = int32(rng.Intn(rows))
				if e%3 == 0 {
					ai[e] = 0
				}
			}
			want := make([]float32, n)
			for e := range want {
				var s float32
				for j := 0; j < w; j++ {
					p := a[int(ai[e])*w+j] * b[int(bi[e])*w+j]
					s += p
				}
				want[e] = s
			}
			for name, impl := range map[string]func(out, a []float32, ai []int32, b []float32, bi []int32, w int){
				"active": GatherDot, "portable": gatherDotGo,
			} {
				got := make([]float32, n)
				for e := range got {
					got[e] = float32(math.NaN()) // must be overwritten, not accumulated into
				}
				impl(got, a, ai, b, bi, w)
				for e := range got {
					if !sameF32(got[e], want[e]) {
						t.Fatalf("%s w=%d n=%d edge %d: %08x vs definition %08x",
							name, w, n, e, math.Float32bits(got[e]), math.Float32bits(want[e]))
					}
				}
			}
		}
	}
}

// TestGatherDotNotFusedNotReassociated feeds GatherDot rows on which a
// fused multiply-add or a tree-shaped sum produces a different float32
// than the sequential definition.
func TestGatherDotNotFusedNotReassociated(t *testing.T) {
	const n, w = 9, 16
	a := make([]float32, 2*w)
	b := make([]float32, 2*w)
	// Row 0: p0 = −1, p1 = (1+2⁻²³)(1−2⁻²³) rounds to 1, so the
	// sequential sum is exactly 0; an FMA keeps −2⁻⁴⁶.
	a[0], b[0] = -1, 1
	a[1], b[1] = float32(1+1.0/(1<<23)), float32(1-1.0/(1<<23))
	// Row 1: 1e8, 1, −1e8, 1 sum to 1 in order (the first 1 is absorbed),
	// to 0 pairwise.
	a[w+8], a[w+9], a[w+10], a[w+11] = 1e8, 1, -1e8, 1
	b[w+8], b[w+9], b[w+10], b[w+11] = 1, 1, 1, 1
	idx := make([]int32, n)
	for e := range idx {
		idx[e] = int32(e % 2)
	}
	out := make([]float32, n)
	GatherDot(out, a, idx, b, idx, w)
	for e, v := range out {
		if want := float32(e % 2); v != want {
			t.Fatalf("edge %d: got %g, want %g — GatherDot fused or reordered the sum", e, v, want)
		}
	}
}

// TestGemvBitwise proves GemvAdd/GemvMulAdd match their reference form —
// zeroed scratch, one portable VecMulAdd per input row in i order, then
// the accumulate — across output widths covering the 16-wide register
// path and the generic fallback, including din=0 (the fold of a zeroed
// transform must still happen: acc = acc + 0 normalizes -0 to +0).
func TestGemvBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dout := range []int{1, 4, 8, 16, 24} {
		for _, din := range []int{0, 1, 2, 7, 16, 31} {
			w := make([]float32, din*dout)
			for i := range w {
				w[i] = rng.Float32()*4 - 2
			}
			x := make([]float32, din)
			for i := range x {
				x[i] = rng.Float32()*4 - 2
			}
			for _, scaled := range []bool{false, true} {
				s := rng.Float32()*4 - 2
				acc := make([]float32, dout)
				for j := range acc {
					acc[j] = rng.Float32()*4 - 2
				}
				acc[rng.Intn(dout)] = float32(math.Copysign(0, -1))
				want := append([]float32(nil), acc...)
				ref := make([]float32, dout)
				for i := 0; i < din; i++ {
					vecMulAddGo(ref, w[i*dout:(i+1)*dout], x[i])
				}
				if scaled {
					vecMulAddGo(want, ref, s)
				} else {
					vecAddGo(want, ref)
				}
				got := append([]float32(nil), acc...)
				tmp := make([]float32, dout)
				if scaled {
					GemvMulAdd(got, tmp, w, x, s)
				} else {
					GemvAdd(got, tmp, w, x)
				}
				for j := range got {
					if !sameF32(got[j], want[j]) {
						t.Fatalf("dout=%d din=%d scaled=%v elem %d: active %08x vs reference %08x",
							dout, din, scaled, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// TestSetSIMD exercises the runtime backend switch: disabling must swap
// in the portable kernels, re-enabling must restore the vector ones, and
// both must be reported consistently. On hosts without vector support
// the switch is a documented no-op.
func TestSetSIMD(t *testing.T) {
	orig := simdOn
	defer SetSIMD(orig)

	if !simdAvailable {
		if SetSIMD(true) != orig || simdOn != orig {
			t.Fatal("SetSIMD must be a no-op without vector support")
		}
		return
	}
	SetSIMD(false)
	if simdOn {
		t.Fatal("SIMD still on after SetSIMD(false)")
	}
	if gemmName != "go-4x8" {
		t.Fatalf("portable gemm kernel not installed: %s", gemmName)
	}
	SetSIMD(true)
	if !simdOn {
		t.Fatal("SIMD still off after SetSIMD(true)")
	}
	if gemmName != "avx2-fma-4x16" {
		t.Fatalf("vector gemm kernel not installed: %s", gemmName)
	}
}

// BenchmarkGatherDot times one GAT-backward-shaped pass: a row-constant
// vector against 256-edge blocks of gathered width-64 rows.
func BenchmarkGatherDot(b *testing.B) {
	const rows, w, block = 7651, 64, 256
	rng := rand.New(rand.NewSource(13))
	src := make([]float32, rows*w)
	for i := range src {
		src[i] = rng.Float32()
	}
	row := src[:w]
	idx := make([]int32, block)
	for e := range idx {
		idx[e] = int32(rng.Intn(rows))
	}
	zero := make([]int32, block)
	out := make([]float32, block)
	b.SetBytes(block * w * 4)
	for i := 0; i < b.N; i++ {
		GatherDot(out, row, zero, src, idx, w)
	}
}
