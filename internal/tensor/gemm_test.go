package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// ulpAt returns the spacing between float32 values at magnitude |x|.
func ulpAt(x float32) float32 {
	if x < 0 {
		x = -x
	}
	return math.Nextafter32(x, math.MaxFloat32) - x
}

// absData returns a copy of t with every element replaced by its
// absolute value — the scale matrix for ulp-relative comparison.
func absData(t *Tensor) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		if v < 0 {
			v = -v
		}
		out.data[i] = v
	}
	return out
}

// gemmWithin asserts got and want agree within `ulps` ulps measured at
// the scale of the element's absolute-value product (the sum Σ|a·b|,
// which bounds every partial in any accumulation order).
func gemmWithin(t *testing.T, name string, got, want, scale *Tensor, ulps float32) {
	t.Helper()
	for i := range want.data {
		g, w, s := got.data[i], want.data[i], scale.data[i]
		d := g - w
		if d < 0 {
			d = -d
		}
		if d > ulps*ulpAt(s) {
			t.Fatalf("%s: elem %d: got %g want %g (scale %g, diff %g > %g ulps)",
				name, i, g, w, s, d, ulps)
		}
	}
}

// gemmShapes covers full tiles, sub-tile shapes, prime tails in every
// dimension, and K spans crossing the gemmKC block boundary.
var gemmShapes = [][3]int{
	{1, 1, 1},
	{3, 5, 7},
	{4, 8, 16},
	{5, 17, 23},
	{4, 256, 16},
	{7, 300, 33},
	{31, 37, 41},
	{64, 64, 64},
	{13, 259, 19},
	{97, 101, 103},
}

func runBlockedVsRef(t *testing.T, micro microFn, nr int) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		at := transpose(a) // [k, m]
		bt := transpose(b) // [n, k]

		want := RefMatMul(a, b)
		scale := RefMatMul(absData(a), absData(b))

		got := New(m, n)
		gemmWith(micro, nr, got.data, a.data, b.data, m, k, n, false, false, true)
		gemmWithin(t, "MatMul", got, want, scale, 4)

		got = New(m, n)
		gemmWith(micro, nr, got.data, a.data, bt.data, m, k, n, false, true, true)
		gemmWithin(t, "MatMulT", got, want, scale, 4)

		got = New(m, n)
		gemmWith(micro, nr, got.data, at.data, b.data, m, k, n, true, false, true)
		gemmWithin(t, "TMatMul", got, want, scale, 4)

		// Parallel path must match the serial one bitwise (fixed K order,
		// disjoint row writes).
		gotPar := New(m, n)
		gemmWith(micro, nr, gotPar.data, a.data, b.data, m, k, n, false, false, false)
		serial := New(m, n)
		gemmWith(micro, nr, serial.data, a.data, b.data, m, k, n, false, false, true)
		for i := range serial.data {
			if gotPar.data[i] != serial.data[i] {
				t.Fatalf("parallel gemm not bitwise-deterministic at %d: %g vs %g",
					i, gotPar.data[i], serial.data[i])
			}
		}
	}
}

func TestBlockedGemmPortableKernel(t *testing.T) { runBlockedVsRef(t, mk4x8go, 8) }

func TestBlockedGemmActiveKernel(t *testing.T) {
	t.Logf("active microkernel: %s", gemmName)
	runBlockedVsRef(t, gemmMicro, gemmNR)
}

func TestPublicMatMulDispatch(t *testing.T) {
	// Shapes straddling gemmSerialMACs so both dispatch arms are hit
	// through the public entry points.
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{5, 9, 11}, {64, 96, 80}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		scale := RefMatMul(absData(a), absData(b))
		gemmWithin(t, "MatMul", MatMul(a, b), RefMatMul(a, b), scale, 4)
		gemmWithin(t, "MatMulT", MatMulT(a, transpose(b)), RefMatMul(a, b), scale, 4)
		gemmWithin(t, "TMatMul", TMatMul(transpose(a), b), RefMatMul(a, b), scale, 4)
	}
}

// TestMatMulNaNInfPropagation is the regression test for the removed
// `av == 0` skip: a zero multiplicand against a NaN/Inf operand must
// still produce NaN (0·NaN = NaN, 0·Inf = NaN) on every code path.
func TestMatMulNaNInfPropagation(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	check := func(name string, out *Tensor, idx int) {
		t.Helper()
		v := out.data[idx]
		if !math.IsNaN(float64(v)) {
			t.Fatalf("%s: elem %d = %g, want NaN", name, idx, v)
		}
	}

	// Small shapes: the serial reference path.
	a := New(2, 3) // all zeros
	b := New(3, 2)
	b.data[0] = nan
	b.data[3] = inf
	check("MatMul/ref", MatMul(a, b), 0)
	check("MatMul/ref-inf", MatMul(a, b), 1)
	check("TMatMul/ref", TMatMul(transpose(a), b), 0)
	check("MatMulT/ref", MatMulT(a, transpose(b)), 0)

	// Blocked path, forced regardless of size.
	out := New(2, 2)
	gemm(out.data, a.data, b.data, 2, 3, 2, false, false, true)
	check("MatMul/blocked", out, 0)

	// Large shapes: the public dispatch lands on the blocked path.
	m, k, n := 40, 40, 40
	a = New(m, k)
	b = Ones(k, n)
	b.data[0] = nan
	check("MatMul/blocked-large", MatMul(a, b), 0)
}

func TestVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	impls := []struct {
		name string
		fn   func(dst, src []float32)
	}{{"go", vecAddGo}, {"active", vecAddImpl}}
	for _, im := range impls {
		for n := 0; n <= 67; n++ {
			dst := make([]float32, n)
			src := make([]float32, n)
			want := make([]float32, n)
			for i := range dst {
				dst[i] = rng.Float32()
				src[i] = rng.Float32()
				want[i] = dst[i] + src[i]
			}
			im.fn(dst, src)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%s: n=%d elem %d: got %g want %g", im.name, n, i, dst[i], want[i])
				}
			}
		}
	}
}

func BenchmarkGemmBlocked256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 1024, 256)
	w := Randn(rng, 1, 256, 256)
	out := New(1024, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(out.data)
		gemm(out.data, x.data, w.data, 1024, 256, 256, false, false, true)
	}
}

// BenchmarkWideGemm times the products that carry a full-graph epoch on
// wide features: train-full-gat's [7651,745]·[745,64] forward and its
// [7651,745]ᵀ·[7651,64] weight gradient, and the same pair at GCN-like
// k = 6805, n = 64, with m cut to 2048 so an input stays under 64 MB.
func BenchmarkWideGemm(b *testing.B) {
	benchGemm(b, 43, []gemmBench{
		{"matmul-7651x745x64", 7651, 745, 64, false},
		{"tmatmul-745x7651x64", 745, 7651, 64, true},
		{"matmul-2048x6805x64", 2048, 6805, 64, false},
		{"tmatmul-6805x2048x64", 6805, 2048, 64, true},
	})
}

// gemmBench is one public product of a GEMM benchmark: [m,k]·[k,n] by
// MatMul, or by TMatMul with A stored transposed as [k,m].
type gemmBench struct {
	name    string
	m, k, n int
	transA  bool
}

// benchGemm times each product through the public entry point into a
// reused destination, reporting bytes touched, allocations and GFLOP/s.
func benchGemm(b *testing.B, seed int64, cases []gemmBench) {
	rng := rand.New(rand.NewSource(seed))
	for _, c := range cases {
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

func BenchmarkGemmNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 1024, 256)
	w := Randn(rng, 1, 256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RefMatMul(x, w)
	}
}
