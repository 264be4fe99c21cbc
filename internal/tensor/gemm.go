package tensor

import (
	"sync"

	"seastar/internal/sched"
)

// Blocked, packed GEMM — the CPU analogue of the paper's feature-adaptive
// thread groups (§6.3.1): instead of sizing a warp's register tile to the
// feature dimension, we size a register-tiled microkernel to the core's
// register file and keep one packed K×NR micro-panel of B resident in L1
// while it is reused by every row block.
//
// The driver follows the classic panel-packing scheme:
//
//	for each K-block (gemmKC rows of B):
//	    pack B[pc:pc+kc, :] into NR-wide column panels (pooled buffer)
//	    for each MR-row block of A (parallel over the shared scheduler):
//	        pack the A block interleaved as [kc][MR] (pooled buffer)
//	        for each panel: C[MR][NR] += Ablock · panel   (microkernel)
//
// Two microkernels back the same driver: a portable 4×8 Go kernel written
// as two 4×4 register blocks so the compiler keeps each half's sixteen
// accumulators in XMM registers, and (on amd64 hosts with AVX2+FMA) a
// 4×16 assembly kernel holding the accumulator tile in eight YMM
// registers. Both consume identical packed layouts, so correctness tests
// run the portable kernel against the assembly one directly.
const (
	// gemmMR is the register-tile row count shared by every microkernel.
	gemmMR = 4
	// gemmMaxNR bounds the panel width of any microkernel (the assembly
	// kernel's 16); tail tiles use a scratch buffer of this width.
	gemmMaxNR = 16
	// gemmSerialMACs is the multiply-accumulate count below which packing
	// cannot amortize its own traffic: such products take the naive
	// serial reference path instead.
	gemmSerialMACs = 1 << 15
	// gemmRowGrain is the minimum A-row block handed to one worker, in
	// rows; it keeps the per-chunk packing overhead small relative to
	// the microkernel work.
	gemmRowGrain = 64
)

// microFn computes C[gemmMR][nr] += Ablock · panel for one packed A block
// (kc×gemmMR interleaved) and one packed B panel (kc×nr).
type microFn func(kc int, ap, bp []float32, c0, c1, c2, c3 []float32)

// gemmKC is the K-block: one packed micro-panel (gemmKC × NR floats)
// must stay L1-resident across a whole row sweep. 256×16×4 B = 16 KB,
// half of a typical 32 KB L1d. A variable rather than a constant so the
// measured re-planner can retune the block to the host's actual L1
// (SetGemmKC); the K loop accumulates into the same C tile in the same
// order for every block size, so results are bitwise-stable across
// retunes only when the split points coincide — which is why the
// re-planner treats kc as outside the bitwise-safe envelope and the
// property test pins both sides explicitly.
var gemmKC = 256

// SetGemmKC overrides the GEMM K-block size (clamped to at least
// gemmMR) and returns the previous value. Benchmarks and the adaptive
// planner's measurement harness use it; it must not be called
// concurrently with running matmuls.
func SetGemmKC(kc int) int {
	prev := gemmKC
	if kc < gemmMR {
		kc = gemmMR
	}
	gemmKC = kc
	return prev
}

// GemmKC reports the current GEMM K-block size.
func GemmKC() int { return gemmKC }

// The active microkernel, selected at package init: the AVX2+FMA 4×16
// assembly kernel when the host supports it (see gemm_amd64.go),
// otherwise the portable 4×8 Go kernel.
var (
	gemmNR    = 8
	gemmMicro = microFn(mk4x8go)
	gemmName  = "go-4x8"
)

// GemmKernelName reports the active microkernel ("avx2-fma-4x16" on
// capable amd64 hosts, "go-4x8" otherwise) for benchmark reports.
func GemmKernelName() string { return gemmName }

// gemmBufs pools packing buffers so steady-state training steps reuse
// the same panels instead of allocating per call.
var gemmBufs sync.Pool

func gemmGet(n int) []float32 {
	if v := gemmBufs.Get(); v != nil {
		b := *(v.(*[]float32))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float32, n)
}

func gemmPut(b []float32) { gemmBufs.Put(&b) }

// packA packs rows [i0, i0+rows) of the m×k row-major matrix a, K-slice
// [pc, pc+kc), into ap as [kc][gemmMR] interleaved; rows beyond `rows`
// are zero-padded so the microkernel always runs a full register tile.
func packA(ap, a []float32, k, i0, rows, pc, kc int) {
	for r := 0; r < gemmMR; r++ {
		if r >= rows {
			for p := 0; p < kc; p++ {
				ap[p*gemmMR+r] = 0
			}
			continue
		}
		row := a[(i0+r)*k+pc : (i0+r)*k+pc+kc]
		for p, v := range row {
			ap[p*gemmMR+r] = v
		}
	}
}

// packAT is packA for a stored transposed as [k, m] (the TMatMul layout):
// logical element (i, p) lives at a[p*m+i].
func packAT(ap, a []float32, m, i0, rows, pc, kc int) {
	for p := 0; p < kc; p++ {
		row := a[(pc+p)*m+i0:]
		for r := 0; r < gemmMR; r++ {
			if r < rows {
				ap[p*gemmMR+r] = row[r]
			} else {
				ap[p*gemmMR+r] = 0
			}
		}
	}
}

// packB packs b's K-slice [pc, pc+kc) across all n columns into nr-wide
// panels: panel j0/nr holds [kc][nr] contiguously, zero-padded on the
// right so the microkernel never reads past a column tail.
func packB(bp, b []float32, n, pc, kc, nr int) {
	idx := 0
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		for p := 0; p < kc; p++ {
			row := b[(pc+p)*n+j0 : (pc+p)*n+j0+jw]
			copy(bp[idx:idx+jw], row)
			for j := jw; j < nr; j++ {
				bp[idx+j] = 0
			}
			idx += nr
		}
	}
}

// packBT is packB for b stored transposed as [n, k] (the MatMulT layout):
// logical element (p, j) lives at b[j*k+p].
func packBT(bp, b []float32, k, n, pc, kc, nr int) {
	idx := 0
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		for p := 0; p < kc; p++ {
			for j := 0; j < jw; j++ {
				bp[idx+j] = b[(j0+j)*k+pc+p]
			}
			for j := jw; j < nr; j++ {
				bp[idx+j] = 0
			}
			idx += nr
		}
	}
}

// gemm computes c += opA(a) · opB(b) for row-major float32 matrices with
// panel packing, L1-sized K-blocks and the active register-tiled
// microkernel. transA reads a as [k, m] (aᵀ·b), transB reads b as [n, k]
// (a·bᵀ). Row blocks are dispatched through the shared scheduler unless
// serial is set. Each C element is written by exactly one worker and the
// K-blocks run in a fixed order, so results are deterministic regardless
// of worker count.
func gemm(c, a, b []float32, m, k, n int, transA, transB, serial bool) {
	gemmWith(gemmMicro, gemmNR, c, a, b, m, k, n, transA, transB, serial)
}

func gemmWith(micro microFn, nr int, c, a, b []float32, m, k, n int, transA, transB, serial bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	nPanels := (n + nr - 1) / nr
	bp := gemmGet(gemmKC * nPanels * nr)
	for pc := 0; pc < k; pc += gemmKC {
		kc := k - pc
		if kc > gemmKC {
			kc = gemmKC
		}
		if transB {
			packBT(bp, b, k, n, pc, kc, nr)
		} else {
			packB(bp, b, n, pc, kc, nr)
		}
		run := func(lo, hi int) {
			ap := gemmGet(kc * gemmMR)
			var tail [gemmMR * gemmMaxNR]float32
			for i := lo; i < hi; i += gemmMR {
				rows := hi - i
				if rows > gemmMR {
					rows = gemmMR
				}
				if transA {
					packAT(ap, a, m, i, rows, pc, kc)
				} else {
					packA(ap, a, k, i, rows, pc, kc)
				}
				for jp := 0; jp < nPanels; jp++ {
					j := jp * nr
					panel := bp[jp*kc*nr : (jp+1)*kc*nr]
					if rows == gemmMR && j+nr <= n {
						micro(kc, ap, panel,
							c[i*n+j:], c[(i+1)*n+j:], c[(i+2)*n+j:], c[(i+3)*n+j:])
						continue
					}
					// Tail tile: run into scratch, add back the valid
					// region only (padded rows/columns are discarded).
					ct := tail[: gemmMR*nr : gemmMR*nr]
					for x := range ct {
						ct[x] = 0
					}
					micro(kc, ap, panel, ct[0:], ct[nr:], ct[2*nr:], ct[3*nr:])
					jw := n - j
					if jw > nr {
						jw = nr
					}
					for r := 0; r < rows; r++ {
						or := c[(i+r)*n+j : (i+r)*n+j+jw]
						src := ct[r*nr : r*nr+jw]
						for x, v := range src {
							or[x] += v
						}
					}
				}
			}
			gemmPut(ap)
		}
		if serial {
			run(0, m)
		} else {
			sched.For(m, gemmRowGrain, run)
		}
	}
	gemmPut(bp)
}

// mk4x8go is the portable register-tiled microkernel: a 4×8 tile computed
// as two sequential 4×4 register blocks, each holding its sixteen
// accumulators in locals so the compiler keeps them in XMM registers
// (4×8 in one body would need 32 accumulators and spill).
func mk4x8go(kc int, ap, bp []float32, c0, c1, c2, c3 []float32) {
	mk4x4go(kc, ap, bp, c0, c1, c2, c3, 0)
	mk4x4go(kc, ap, bp, c0, c1, c2, c3, 4)
}

func mk4x4go(kc int, ap, bp []float32, c0, c1, c2, c3 []float32, off int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	for p := 0; p < kc; p++ {
		b := bp[p*8+off : p*8+off+4 : p*8+off+4]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a := ap[p*4 : p*4+4 : p*4+4]
		av := a[0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a[1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a[2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a[3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	c0[off] += c00
	c0[off+1] += c01
	c0[off+2] += c02
	c0[off+3] += c03
	c1[off] += c10
	c1[off+1] += c11
	c1[off+2] += c12
	c1[off+3] += c13
	c2[off] += c20
	c2[off+1] += c21
	c2[off+2] += c22
	c2[off+3] += c23
	c3[off] += c30
	c3[off+1] += c31
	c3[off+2] += c32
	c3[off+3] += c33
}

// vecAddImpl is the active elementwise-add kernel; amd64 init swaps in
// the AVX2 version.
var vecAddImpl = vecAddGo

// VecAdd adds src into dst elementwise (dst[i] += src[i]); len(src) must
// be at least len(dst). It is the accumulate primitive of the fused
// aggregation kernels, vectorized on capable hosts.
func VecAdd(dst, src []float32) { vecAddImpl(dst, src) }

func vecAddGo(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// vecMulAddImpl is the active scaled-accumulate kernel; amd64 init swaps
// in the AVX2 version.
var vecMulAddImpl = vecMulAddGo

// VecMulAdd accumulates dst[i] += s·src[i] with the multiply and the add
// rounded separately (never fused into an FMA), so the result is bitwise
// identical to an interpreted Mul step followed by VecAdd. It is the
// gather-accumulate primitive of the specialized fused kernels: one call
// scales a neighbour's feature row and folds it into the row accumulator.
func VecMulAdd(dst, src []float32, s float32) { vecMulAddImpl(dst, src, s) }

// gatherMulAddImpl is the active batched gather-accumulate kernel; amd64
// init swaps in the AVX2 version.
var gatherMulAddImpl = gatherMulAddGo

// GatherMulAdd folds a block of scaled rows into acc: for each edge e,
// acc[j] += scale[e]·src[idx[e]·len(acc)+j], edges in slice order, the
// multiply and add rounded separately per element — bitwise identical to
// one VecMulAdd call per edge. The AVX2 backend (row widths 8 and 16)
// keeps acc resident in registers across the whole block and prefetches
// upcoming rows, overlapping the cold neighbour gathers that dominate
// the per-edge form.
func GatherMulAdd(acc, src []float32, idx []int32, scale []float32) {
	if len(idx) == 0 {
		return
	}
	gatherMulAddImpl(acc, src, idx, scale)
}

func gatherMulAddGo(acc, src []float32, idx []int32, scale []float32) {
	w := len(acc)
	for e, ix := range idx {
		base := int(ix) * w
		vecMulAddImpl(acc, src[base:base+w], scale[e])
	}
}

// gatherDotImpl is the active per-edge dot kernel; amd64 init swaps in
// the AVX2 version.
var gatherDotImpl = gatherDotGo

// GatherDot computes one dot product of two gathered rows per edge of a
// block (FeatGraph's generalized-SDDMM template):
//
//	out[e] = Σ_j a[ai[e]·w+j] · b[bi[e]·w+j]        e < len(out)
//
// with exactly the rounding of an interpreted wide Mul step followed by
// RowSum: each product is rounded to float32, then folded into a sum that
// starts at +0, for j ascending — never an FMA, never a reassociated
// tree. One edge's sum is a serial chain of dependent adds, so the speed
// comes from running several edges' chains in lockstep (4 in portable Go;
// the AVX2 backend runs 8, one per lane, transposing 8×8 product tiles so
// that every lane still adds its own products in j order).
func GatherDot(out, a []float32, ai []int32, b []float32, bi []int32, w int) {
	if len(out) == 0 {
		return
	}
	gatherDotImpl(out, a, ai, b, bi, w)
}

func gatherDotGo(out, a []float32, ai []int32, b []float32, bi []int32, w int) {
	n := len(out)
	ai, bi = ai[:n], bi[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		a0, b0 := a[int(ai[e])*w:][:w], b[int(bi[e])*w:][:w]
		a1, b1 := a[int(ai[e+1])*w:][:w], b[int(bi[e+1])*w:][:w]
		a2, b2 := a[int(ai[e+2])*w:][:w], b[int(bi[e+2])*w:][:w]
		a3, b3 := a[int(ai[e+3])*w:][:w], b[int(bi[e+3])*w:][:w]
		var s0, s1, s2, s3 float32
		for j := range a0 {
			// The explicit conversions pin the product's rounding: the
			// spec lets a compiler fuse x*y+z across statements otherwise.
			s0 += float32(a0[j] * b0[j])
			s1 += float32(a1[j] * b1[j])
			s2 += float32(a2[j] * b2[j])
			s3 += float32(a3[j] * b3[j])
		}
		out[e], out[e+1], out[e+2], out[e+3] = s0, s1, s2, s3
	}
	for ; e < n; e++ {
		out[e] = dotTail(0, a[int(ai[e])*w:][:w], b[int(bi[e])*w:][:w])
	}
}

// dotTail continues one edge's order-preserving dot from partial sum s.
func dotTail(s float32, a, b []float32) float32 {
	b = b[:len(a)]
	for j := range a {
		s += float32(a[j] * b[j])
	}
	return s
}

// gemvAddImpl / gemvMulAddImpl are the active per-edge transform-
// accumulate kernels; amd64 init swaps in the AVX2 versions.
var (
	gemvAddImpl    = gemvAddGo
	gemvMulAddImpl = gemvMulAddGo
)

// GemvAdd folds a typed transform into acc: acc[o] += Σ_i x[i]·w[i·dout+o]
// with dout = len(acc), the per-o sums built from zero in i order (the
// row-axpy form of the interpreter's per-output dot products) and the
// fold rounded like a VecAdd. tmp must be a scratch row of len(acc); the
// portable path stages the transform there, the AVX2 dout=16 path keeps
// it in registers and leaves tmp untouched.
func GemvAdd(acc, tmp, w, x []float32) { gemvAddImpl(acc, tmp, w, x) }

// GemvMulAdd is GemvAdd with the transform output scaled by s before the
// fold — one extra rounding, exactly an interpreted Mul step followed by
// the accumulate.
func GemvMulAdd(acc, tmp, w, x []float32, s float32) { gemvMulAddImpl(acc, tmp, w, x, s) }

func gemvAddGo(acc, tmp, w, x []float32) {
	dout := len(acc)
	tmp = tmp[:dout]
	for j := range tmp {
		tmp[j] = 0
	}
	for i, xv := range x {
		vecMulAddImpl(tmp, w[i*dout:(i+1)*dout], xv)
	}
	vecAddImpl(acc, tmp)
}

func gemvMulAddGo(acc, tmp, w, x []float32, s float32) {
	dout := len(acc)
	tmp = tmp[:dout]
	for j := range tmp {
		tmp[j] = 0
	}
	for i, xv := range x {
		vecMulAddImpl(tmp, w[i*dout:(i+1)*dout], xv)
	}
	vecMulAddImpl(acc, tmp, s)
}

func vecMulAddGo(dst, src []float32, s float32) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		// Assigning each product to a float32 local forces the
		// intermediate rounding the spec would otherwise let the
		// compiler fuse away.
		t0 := s * src[i]
		t1 := s * src[i+1]
		t2 := s * src[i+2]
		t3 := s * src[i+3]
		dst[i] += t0
		dst[i+1] += t1
		dst[i+2] += t2
		dst[i+3] += t3
	}
	for ; i < n; i++ {
		t := s * src[i]
		dst[i] += t
	}
}
