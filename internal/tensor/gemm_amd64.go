//go:build amd64

package tensor

// AVX2+FMA backend for the blocked GEMM driver: 4×16 and 4×8
// microkernels whose accumulator tiles live in eight or four YMM
// registers, plus the vectorized elementwise add used by the fused
// aggregation kernels. Selected at
// init after a CPUID/XGETBV check; hosts without AVX2+FMA (or non-amd64
// builds) keep the portable Go kernels.

// cpuidRaw executes CPUID with the given leaf/subleaf.
func cpuidRaw(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// fmaKernel4x16 computes C[4][16] += A[4][kc] · Bpanel[kc][16], A element
// (r, p) at a[r·rs + p·ks].
//
//go:noescape
func fmaKernel4x16(kc int64, a *float32, rs, ks int64, bp, c0, c1, c2, c3 *float32)

// fmaKernel4x8 is fmaKernel4x16 for an 8-wide panel.
//
//go:noescape
func fmaKernel4x8(kc int64, a *float32, rs, ks int64, bp, c0, c1, c2, c3 *float32)

// vecAddAsm adds n floats of src into dst; n must be a multiple of 8.
//
//go:noescape
func vecAddAsm(dst, src *float32, n int64)

// vecMulAddAsm accumulates dst[i] += s·src[i] for i < n with VMULPS
// followed by VADDPS — two separately rounded operations, deliberately
// not VFMADD: the specialized kernels require bitwise equality with the
// interpreter's distinct Mul and accumulate steps. n must be a multiple
// of 8.
//
//go:noescape
func vecMulAddAsm(dst, src *float32, s float32, n int64)

// gatherMulAddAsm16 runs the width-16 batched gather-accumulate: the
// accumulator pair stays in registers across all n edges and upcoming
// rows are software-prefetched. Per-edge rounding is identical to one
// vecMulAddAsm call per edge.
//
//go:noescape
func gatherMulAddAsm16(acc, src *float32, idx *int32, scale *float32, n int64)

// gatherMulAddAsm8 is gatherMulAddAsm16 at row width 8.
//
//go:noescape
func gatherMulAddAsm8(acc, src *float32, idx *int32, scale *float32, n int64)

// gemvAddAsm16 computes acc[o] += Σ_i x[i]·w[i*16+o] with the transform
// sums built in registers from zero in i order (row-axpy), bitwise equal
// to the zero-scratch + per-row VecMulAdd sequence.
//
//go:noescape
func gemvAddAsm16(acc, w, x *float32, din int64)

// gemvMulAddAsm16 is gemvAddAsm16 with the transform output scaled by s
// (one extra rounding) before the fold into acc.
//
//go:noescape
func gemvMulAddAsm16(acc, w, x *float32, din int64, s float32)

// gatherDotAsm8 computes eight order-preserving dot products in lockstep
// over columns [0, w8) of the rows starting at elements aoff[e], boff[e];
// w8 must be a positive multiple of 8. See GatherDot for the rounding
// contract.
//
//go:noescape
func gatherDotAsm8(out, a *float32, aoff *int64, b *float32, boff *int64, w8 int64)

// prefetchT0 hints p's cache line into L1.
//
//go:noescape
func prefetchT0(p *float32)

func haveAVX2FMA() bool {
	const (
		fmaBit     = 1 << 12 // leaf 1 ECX
		osxsaveBit = 1 << 27 // leaf 1 ECX
		avx2Bit    = 1 << 5  // leaf 7 EBX
	)
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidRaw(1, 0)
	if c&fmaBit == 0 || c&osxsaveBit == 0 {
		return false
	}
	_, b, _, _ := cpuidRaw(7, 0)
	if b&avx2Bit == 0 {
		return false
	}
	// The OS must save XMM and YMM state across context switches.
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6
}

func init() {
	if !haveAVX2FMA() {
		return
	}
	simdAvailable = true
	simdInstall = func(on bool) {
		if on {
			gemmNR, gemmMicro, gemmMicro8, gemmName = 16, microFn(mkFMA4x16), microFn(mkFMA4x8), "avx2-fma-4x16"
			refMatMulImpl = refMatMulAVX
			vecAddImpl = vecAddFMA
			vecMulAddImpl = vecMulAddAVX
			gatherMulAddImpl = gatherMulAddAVX
			gatherDotImpl = gatherDotAVX
			gemvAddImpl = gemvAddAVX
			gemvMulAddImpl = gemvMulAddAVX
		} else {
			gemmNR, gemmMicro, gemmMicro8, gemmName = 8, microFn(mk4x8go), microFn(mk4x8go), "go-4x8"
			refMatMulImpl = refMatMulInto
			vecAddImpl = vecAddGo
			vecMulAddImpl = vecMulAddGo
			gatherMulAddImpl = gatherMulAddGo
			gatherDotImpl = gatherDotGo
			gemvAddImpl = gemvAddGo
			gemvMulAddImpl = gemvMulAddGo
		}
	}
	if !simdDisabledByEnv() {
		SetSIMD(true)
	}
}

// mkFMA4x16 and mkFMA4x8 adapt the assembly kernels to the microFn
// signature. The assembly does not bounds-check: the last A element and
// the C row ends are touched here first.
func mkFMA4x16(kc int, a []float32, rs, ks int, bp []float32, c0, c1, c2, c3 []float32) {
	_, _ = a[3*rs+(kc-1)*ks], bp[kc*16-1]
	_, _, _, _ = c0[15], c1[15], c2[15], c3[15]
	fmaKernel4x16(int64(kc), &a[0], int64(rs), int64(ks), &bp[0], &c0[0], &c1[0], &c2[0], &c3[0])
}

func mkFMA4x8(kc int, a []float32, rs, ks int, bp []float32, c0, c1, c2, c3 []float32) {
	_, _ = a[3*rs+(kc-1)*ks], bp[kc*8-1]
	_, _, _, _ = c0[7], c1[7], c2[7], c3[7]
	fmaKernel4x8(int64(kc), &a[0], int64(rs), int64(ks), &bp[0], &c0[0], &c1[0], &c2[0], &c3[0])
}

// refMatMulAVX is refMatMulInto with a single output column (an attention
// score's [r,k]·[k,1]) computed eight rows in lockstep on gatherDotAsm8:
// each row's products are rounded, then folded from +0 for p ascending,
// exactly as refMatMulInto folds them into a zeroed c.
func refMatMulAVX(c, a, b []float32, m, k, n int) {
	k8 := k &^ 7
	if n != 1 || k8 == 0 || m < 8 {
		refMatMulInto(c, a, b, m, k, n)
		return
	}
	_, _, _ = a[m*k-1], b[k-1], c[m-1] // the assembly does not bounds-check
	var aoff, boff [8]int64
	i := 0
	for ; i+8 <= m; i += 8 {
		for l := range aoff {
			aoff[l] = int64((i + l) * k)
		}
		gatherDotAsm8(&c[i], &a[0], &aoff[0], &b[0], &boff[0], int64(k8))
		for l := 0; k8 < k && l < 8; l++ {
			c[i+l] = dotTail(c[i+l], a[(i+l)*k+k8:(i+l+1)*k], b[k8:k])
		}
	}
	refMatMulInto(c[i:m], a[i*k:m*k], b, m-i, k, 1)
}

func vecAddFMA(dst, src []float32) {
	n := len(dst) &^ 7
	if n > 0 {
		vecAddAsm(&dst[0], &src[0], int64(n))
	}
	for i := n; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

func vecMulAddAVX(dst, src []float32, s float32) {
	n := len(dst) &^ 7
	if n > 0 {
		vecMulAddAsm(&dst[0], &src[0], s, int64(n))
	}
	for i := n; i < len(dst); i++ {
		t := s * src[i]
		dst[i] += t
	}
}

func gatherMulAddAVX(acc, src []float32, idx []int32, scale []float32) {
	switch len(acc) {
	case 16:
		gatherMulAddAsm16(&acc[0], &src[0], &idx[0], &scale[0], int64(len(idx)))
	case 8:
		gatherMulAddAsm8(&acc[0], &src[0], &idx[0], &scale[0], int64(len(idx)))
	default:
		gatherMulAddGo(acc, src, idx, scale)
	}
}

func gatherDotAVX(out, a []float32, ai []int32, b []float32, bi []int32, w int) {
	w8 := w &^ 7
	if w8 == 0 {
		gatherDotGo(out, a, ai, b, bi, w)
		return
	}
	n := len(out)
	ai, bi = ai[:n], bi[:n]
	var aoff, boff [8]int64
	e := 0
	for ; e+8 <= n; e += 8 {
		for l := 0; l < 8; l++ {
			ao, bo := int(ai[e+l])*w, int(bi[e+l])*w
			_, _ = a[ao+w-1], b[bo+w-1] // the assembly does not bounds-check
			aoff[l], boff[l] = int64(ao), int64(bo)
		}
		gatherDotAsm8(&out[e], &a[0], &aoff[0], &b[0], &boff[0], int64(w8))
		if w8 < w {
			for l := 0; l < 8; l++ {
				ao, bo := int(aoff[l]), int(boff[l])
				out[e+l] = dotTail(out[e+l], a[ao+w8:ao+w], b[bo+w8:bo+w])
			}
		}
	}
	if e < n {
		gatherDotGo(out[e:], a, ai[e:], b, bi[e:], w)
	}
}

func gemvAddAVX(acc, tmp, w, x []float32) {
	if len(acc) == 16 && len(x) > 0 {
		gemvAddAsm16(&acc[0], &w[0], &x[0], int64(len(x)))
		return
	}
	gemvAddGo(acc, tmp, w, x)
}

func gemvMulAddAVX(acc, tmp, w, x []float32, s float32) {
	if len(acc) == 16 && len(x) > 0 {
		gemvMulAddAsm16(&acc[0], &w[0], &x[0], int64(len(x)), s)
		return
	}
	gemvMulAddGo(acc, tmp, w, x, s)
}

// Prefetch hints row's first and last cache lines into L1. It is a pure
// scheduling hint — no architectural effect — so it stays active even
// when SetSIMD disables the arithmetic vector kernels.
func Prefetch(row []float32) {
	if n := len(row); n > 0 {
		prefetchT0(&row[0])
		if n >= 16 {
			prefetchT0(&row[n-1])
		}
	}
}
