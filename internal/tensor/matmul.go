package tensor

import (
	"fmt"

	"seastar/internal/sched"
)

// rowGrain is the minimum rows per chunk for row-parallel kernels (the
// former n < 64 serial cutoff, now expressed as chunk granularity).
const rowGrain = 32

// elemGrain is the minimum elements per chunk for elementwise kernels,
// where per-item work is a couple of flops.
const elemGrain = 8192

// parallelRows splits [0, n) row ranges across the shared scheduler's
// persistent worker pool.
func parallelRows(n int, f func(lo, hi int)) { sched.For(n, rowGrain, f) }

// parallelElems splits [0, n) element ranges across the scheduler.
func parallelElems(n int, f func(lo, hi int)) { sched.For(n, elemGrain, f) }

// MatMul returns a@b for 2-D tensors: [m,k] x [k,n] -> [m,n]. It is
// MatMulRowsLike over every row: products below gemmSerialMACs
// multiply-accumulates run the naive serial reference; larger ones take
// the packed, blocked, register-tiled path in gemm.go.
func MatMul(a, b *Tensor, into ...*Tensor) *Tensor {
	a.check2d()
	return MatMulRowsLike(a, b, a.shape[0], into...)
}

// MatMulRowsLike computes rows@b for a compact [r,k] matrix holding
// selected rows gathered out of a logical [fullRows,k] matrix, returning
// [r,n] rows bitwise-identical to the corresponding rows of the full
// MatMul(a, b) product.
//
// This works because per-row arithmetic is row-independent on both paths:
// the naive reference accumulates each output row alone, and the blocked
// path gives every row its own register accumulators with K-blocks
// consumed in a fixed order (padded tail rows are zeros that never touch
// their neighbours). The only row-count-dependent decision is the
// naive-vs-blocked dispatch, which this entry point replays from
// fullRows instead of r. Incremental recompute uses it to patch a few
// dirty rows of a cached dense product without paying — or bitwise
// diverging from — the full-size multiply. An optional destination
// replaces the fresh result, as for MatMul.
func MatMulRowsLike(rows, b *Tensor, fullRows int, into ...*Tensor) *Tensor {
	rows.check2d()
	b.check2d()
	r, k := rows.shape[0], rows.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %v x %v", rows.shape, b.shape))
	}
	out := dstOr(into, r, n)
	if fullRows*k*n < gemmSerialMACs {
		refMatMulImpl(out.data, rows.data, b.data, r, k, n)
	} else {
		gemm(out.data, rows.data, b.data, r, k, n, false, false, false)
	}
	return out
}

// MatMulSameKernel reports whether [m1,k]×[k,n] and [m2,k]×[k,n] products
// dispatch to the same MatMul code path (naive reference vs blocked). Rows
// cached from an m1-row product stay bitwise-valid inside an m2-row
// product only when this holds; callers patching cached products across a
// row-count change must fall back to a full recompute otherwise.
func MatMulSameKernel(m1, m2, k, n int) bool {
	return (m1*k*n < gemmSerialMACs) == (m2*k*n < gemmSerialMACs)
}

// MatMulT returns a@bᵀ: [m,k] x [n,k] -> [m,n].
func MatMulT(a, b *Tensor, into ...*Tensor) *Tensor {
	a.check2d()
	return MatMulTRowsLike(a, b, a.shape[0], into...)
}

// MatMulTRowsLike is MatMulRowsLike for a@bᵀ: the rows of a compact [r,k]
// matrix selected out of a logical [fullRows,k] one, with the
// naive-vs-blocked dispatch replayed from fullRows.
func MatMulTRowsLike(a, b *Tensor, fullRows int, into ...*Tensor) *Tensor {
	a.check2d()
	b.check2d()
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %v x %v", a.shape, b.shape))
	}
	out := dstOr(into, m, n)
	if fullRows*k*n < gemmSerialMACs {
		refMatMulTInto(out.data, a.data, b.data, m, k, n)
	} else {
		gemm(out.data, a.data, b.data, m, k, n, false, true, false)
	}
	return out
}

// TMatMul returns aᵀ@b: [k,m] x [k,n] -> [m,n].
func TMatMul(a, b *Tensor, into ...*Tensor) *Tensor {
	a.check2d()
	return TMatMulRowsLike(a, b, a.shape[0], into...)
}

// TMatMulRowsLike computes aᵀ@b for [r,m] and [r,n] matrices that are the
// first r rows of logical [fullRows,m] and [fullRows,n] ones whose further
// rows contribute exact zeros (one side zero, the other finite). The
// result has the bits of the full TMatMul: the naive path adds rows in
// order, and the blocked one sums K-blocks that start at row 0 in order,
// so the dropped rows would only have added zeros after the kept ones (a
// sum of -0 may read +0 there). The naive-vs-blocked dispatch is the one
// row-count-dependent decision, and it is replayed from fullRows, as
// MatMulRowsLike does. A weight gradient over a block's destination rows
// uses it.
func TMatMulRowsLike(a, b *Tensor, fullRows int, into ...*Tensor) *Tensor {
	a.check2d()
	b.check2d()
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dims %v x %v", a.shape, b.shape))
	}
	out := dstOr(into, m, n)
	if m*fullRows*n < gemmSerialMACs {
		refTMatMulInto(out.data, a.data, b.data, m, k, n)
	} else {
		gemm(out.data, a.data, b.data, m, k, n, true, false, false)
	}
	return out
}

// refMatMulImpl is MatMul's path below gemmSerialMACs: refMatMulInto, or
// on AVX2 hosts the same arithmetic with single-column products run
// eight rows in lockstep (refMatMulAVX). Its destination must be zeroed,
// as every MatMul destination is.
var refMatMulImpl = refMatMulInto

// refMatMulInto is the unblocked serial reference: c += a@b, axpy order,
// each product rounded before it is added. Every multiplicand
// participates — a zero in a must still propagate a NaN/Inf from b
// (0·NaN = NaN), so there is deliberately no zero skip.
func refMatMulInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		or := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			br := b[p*n : (p+1)*n]
			for j := range or {
				or[j] += float32(av * br[j])
			}
		}
	}
}

func refMatMulTInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		or := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += ar[p] * br[p]
			}
			or[j] = s
		}
	}
}

func refTMatMulInto(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		or := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			br := b[p*n : (p+1)*n]
			for j := range or {
				or[j] += av * br[j]
			}
		}
	}
}

// RefMatMul is the naive single-thread reference for a@b, kept as the
// ground truth for property tests and the blocked-vs-naive benchmark.
func RefMatMul(a, b *Tensor) *Tensor {
	a.check2d()
	b.check2d()
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: RefMatMul inner dims %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	refMatMulInto(out.data, a.data, b.data, m, k, n)
	return out
}
