package tensor

import (
	"sync"

	"seastar/internal/sched"
)

// Blocked GEMM — the CPU analogue of the paper's feature-adaptive thread
// groups (§6.3.1): instead of sizing a warp's register tile to the
// feature dimension, we size a register-tiled microkernel to the core's
// register file and to the product's output width.
//
// The driver follows the classic panel-packing scheme:
//
//	for each K-block (gemmKC rows of B):
//	    pack B[pc:pc+kc, :] into NR-wide column panels (pooled buffer)
//	    for each MR-row block of A (parallel over the shared scheduler):
//	        for each panel: C[MR][NR] += Ablock · panel   (microkernel)
//
// A microkernel reads A through strides: element (r, p) of the block is
// a[r·rs + p·ks]. A full block of MR rows is read where it lies, at
// (k, 1) for MatMul's [m, k] and (1, m) for TMatMul's transposed [k, m],
// whatever the panel count: a block's MR·kc floats stay cache-resident
// across its panels, so a packed copy only adds a pass over A (measured
// in DESIGN §10). A block of fewer than MR rows is packed interleaved as
// [kc][MR], (rs, ks) = (1, MR), zero-padded so the kernel always runs a
// full register tile.
//
// Every kernel sums one K-block from zero in p order and then adds the
// sum into C, so the source of A — in place or a zero-padded tail —
// never changes a bit of the result.
//
// Three microkernels back the driver: a portable 4×8 Go kernel written as
// two 4×4 register blocks so the compiler keeps each half's sixteen
// accumulators in XMM registers, and (on amd64 hosts with AVX2+FMA) 4×8
// and 4×16 assembly kernels holding the accumulator tile in four or eight
// YMM registers. Products with n ≤ 8 take an 8-wide kernel in both modes.
const (
	// gemmMR is the register-tile row count shared by every microkernel.
	gemmMR = 4
	// gemmMaxNR bounds the panel width of any microkernel (the 4×16
	// assembly kernel's); tail tiles use a scratch tile of this width.
	gemmMaxNR = 16
	// gemmKC is the K-block: one packed micro-panel (gemmKC × NR floats)
	// stays L1-resident across a whole row sweep. 256×16×4 B = 16 KB,
	// half of a typical 32 KB L1d.
	gemmKC = 256
	// gemmSerialMACs is the multiply-accumulate count below which packing
	// cannot amortize its own traffic: such products take the naive
	// serial reference path instead.
	gemmSerialMACs = 1 << 15
	// gemmRowGrain is the minimum A-row block handed to one worker, in
	// rows; it keeps the per-chunk overhead small relative to the
	// microkernel work.
	gemmRowGrain = 64
)

// microFn computes C[gemmMR][nr] += A · panel for one K-block of kc rows:
// A element (r, p) is a[r·rs + p·ks], the panel is packed [kc][nr]. Each
// C element is summed from zero for p ascending, then added into C.
type microFn func(kc int, a []float32, rs, ks int, bp []float32, c0, c1, c2, c3 []float32)

// The active microkernels, selected at package init: the AVX2+FMA
// assembly kernels when the host supports them (see gemm_amd64.go),
// otherwise the portable 4×8 Go kernel. gemmMicro8 serves products with
// n ≤ 8, gemmMicro (gemmNR wide) every other.
var (
	gemmNR     = 8
	gemmMicro  = microFn(mk4x8go)
	gemmMicro8 = microFn(mk4x8go)
	gemmName   = "go-4x8"
)

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
			clear(bp[idx+jw : idx+nr])
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
			clear(bp[idx+jw : idx+nr])
			idx += nr
		}
	}
}

// gemm computes c += opA(a) · opB(b) for row-major float32 matrices with
// L1-sized K-blocks and the active register-tiled microkernels. transA
// reads a as [k, m] (aᵀ·b), transB reads b as [n, k] (a·bᵀ). Row chunks
// are dispatched through the shared scheduler unless serial is set. Each
// C element is written by exactly one worker and the K-blocks run in a
// fixed order, so results are deterministic regardless of worker count.
func gemm(c, a, b []float32, m, k, n int, transA, transB, serial bool) {
	micro, nr := gemmMicro, gemmNR
	if n <= 8 {
		micro, nr = gemmMicro8, 8
	}
	gemmWith(micro, nr, c, a, b, m, k, n, transA, transB, serial)
}

// gemmWith is gemm on a given microkernel of panel width nr.
func gemmWith(micro microFn, nr int, c, a, b []float32, m, k, n int, transA, transB, serial bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	g := gemmCalls.Get().(*gemmCall)
	g.micro, g.nr, g.nPanels, g.transA = micro, nr, (n+nr-1)/nr, transA
	g.c, g.a, g.m, g.k, g.n = c, a, m, k, n
	if size := min(k, gemmKC) * g.nPanels * nr; cap(g.bp) < size {
		g.bp = make([]float32, size)
	}
	for g.pc = 0; g.pc < k; g.pc += gemmKC {
		g.kc = min(k-g.pc, gemmKC)
		if transB {
			packBT(g.bp, b, k, n, g.pc, g.kc, nr)
		} else {
			packB(g.bp, b, n, g.pc, g.kc, nr)
		}
		if serial {
			g.rows(0, m)
		} else {
			sched.For(m, gemmRowGrain, g.run)
		}
	}
	g.micro, g.c, g.a = nil, nil, nil
	gemmCalls.Put(g)
}

// gemmCall is one product's state: the operands, the current K-block
// [pc, pc+kc) and B's K-block packed into nPanels panels of [kc][nr].
// Calls are pooled with their packing buffer and their bound row
// function, so a warmed product allocates nothing of its own.
type gemmCall struct {
	micro           microFn
	nr, nPanels     int
	transA          bool
	c, a, bp        []float32
	m, k, n, pc, kc int
	run             func(lo, hi int)
}

var gemmCalls = sync.Pool{New: func() any {
	g := new(gemmCall)
	g.run = g.rows
	return g
}}

// gemmScratch is a row worker's packed tail A block and tail tile. The
// microkernel is called through a function value, so arrays on the
// worker's stack would escape to the heap on every chunk; pooling them
// keeps the chunk allocation-free.
type gemmScratch struct {
	a    [gemmKC * gemmMR]float32
	tail [gemmMR * gemmMaxNR]float32
}

var gemmScratches = sync.Pool{New: func() any { return new(gemmScratch) }}

// rows adds the current K-block's contribution to C rows [lo, hi).
func (g *gemmCall) rows(lo, hi int) {
	s := gemmScratches.Get().(*gemmScratch)
	c, n, nr, kc := g.c, g.n, g.nr, g.kc
	for i := lo; i < hi; i += gemmMR {
		rows := min(hi-i, gemmMR)
		a, rs, ks := g.aBlock(s, i, rows)
		for jp := 0; jp < g.nPanels; jp++ {
			j := jp * nr
			panel := g.bp[jp*kc*nr : (jp+1)*kc*nr]
			if rows == gemmMR && j+nr <= n {
				g.micro(kc, a, rs, ks, panel,
					c[i*n+j:], c[(i+1)*n+j:], c[(i+2)*n+j:], c[(i+3)*n+j:])
				continue
			}
			// Tail tile: run into scratch, add back the valid region
			// only (padded rows/columns are discarded).
			ct := s.tail[: gemmMR*nr : gemmMR*nr]
			clear(ct)
			g.micro(kc, a, rs, ks, panel, ct[0:], ct[nr:], ct[2*nr:], ct[3*nr:])
			jw := min(n-j, nr)
			for r := 0; r < rows; r++ {
				or := c[(i+r)*n+j : (i+r)*n+j+jw]
				for x, v := range ct[r*nr : r*nr+jw] {
					or[x] += v
				}
			}
		}
	}
	gemmScratches.Put(s)
}

// aBlock returns A rows [i, i+rows) over the current K-block with the
// strides the microkernel reads them at: in place for a full block,
// packed and zero-padded into s.a for a tail of fewer than gemmMR rows.
func (g *gemmCall) aBlock(s *gemmScratch, i, rows int) (a []float32, rs, ks int) {
	switch {
	case rows == gemmMR && g.transA:
		return g.a[g.pc*g.m+i:], 1, g.m
	case rows == gemmMR:
		return g.a[i*g.k+g.pc:], g.k, 1
	case g.transA:
		packAT(s.a[:], g.a, g.m, i, rows, g.pc, g.kc)
	default:
		packA(s.a[:], g.a, g.k, i, rows, g.pc, g.kc)
	}
	return s.a[:], 1, gemmMR
}

// mk4x8go is the portable register-tiled microkernel: a 4×8 tile computed
// as two sequential 4×4 register blocks, each holding its sixteen
// accumulators in locals so the compiler keeps them in XMM registers
// (4×8 in one body would need 32 accumulators and spill).
func mk4x8go(kc int, a []float32, rs, ks int, bp []float32, c0, c1, c2, c3 []float32) {
	mk4x4go(kc, a, rs, ks, bp, c0, c1, c2, c3, 0)
	mk4x4go(kc, a, rs, ks, bp, c0, c1, c2, c3, 4)
}

func mk4x4go(kc int, a []float32, rs, ks int, bp []float32, c0, c1, c2, c3 []float32, off int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	a0, a1, a2, a3 := a, a[rs:], a[2*rs:], a[3*rs:]
	for p := 0; p < kc; p++ {
		b := bp[p*8+off : p*8+off+4 : p*8+off+4]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		q := p * ks
		av := a0[q]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[q]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[q]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[q]
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
	clear(tmp)
	for i, xv := range x {
		vecMulAddImpl(tmp, w[i*dout:(i+1)*dout], xv)
	}
	vecAddImpl(acc, tmp)
}

func gemvMulAddGo(acc, tmp, w, x []float32, s float32) {
	dout := len(acc)
	tmp = tmp[:dout]
	clear(tmp)
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
