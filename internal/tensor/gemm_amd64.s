//go:build amd64

#include "textflag.h"

// func cpuidRaw(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaKernel4x16(kc int64, a *float32, rs, ks int64, bp, c0, c1, c2, c3 *float32)
//
// C[4][16] += A[4][kc] * Bpanel[kc][16] (packed), A element (r, p) at
// a[r*rs + p*ks]. The 4x16 accumulator tile lives in Y0-Y7 (two YMM per
// C row), summed from zero; each K iteration loads one 16-wide B line
// (Y8, Y9), broadcasts the four A values and issues eight FMAs. The sums
// are added into C once, after the K loop.
TEXT ·fmaKernel4x16(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ rs+16(FP), R12
	MOVQ ks+24(FP), DX
	MOVQ bp+32(FP), BX
	MOVQ c0+40(FP), R8
	MOVQ c1+48(FP), R9
	MOVQ c2+56(FP), R10
	MOVQ c3+64(FP), R11
	SHLQ $2, R12            // rs in bytes
	SHLQ $2, DX             // ks in bytes
	LEAQ (R12)(R12*2), R13  // 3*rs in bytes
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (AX)(R12*1), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (AX)(R12*2), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS (AX)(R13*1), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         DX, AX
	ADDQ         $64, BX
	DECQ         CX
	JNZ          kloop

	VMOVUPS (R8), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (R8)
	VMOVUPS 32(R8), Y9
	VADDPS  Y9, Y1, Y1
	VMOVUPS Y1, 32(R8)
	VMOVUPS (R9), Y10
	VADDPS  Y10, Y2, Y2
	VMOVUPS Y2, (R9)
	VMOVUPS 32(R9), Y11
	VADDPS  Y11, Y3, Y3
	VMOVUPS Y3, 32(R9)
	VMOVUPS (R10), Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (R10)
	VMOVUPS 32(R10), Y9
	VADDPS  Y9, Y5, Y5
	VMOVUPS Y5, 32(R10)
	VMOVUPS (R11), Y10
	VADDPS  Y10, Y6, Y6
	VMOVUPS Y6, (R11)
	VMOVUPS 32(R11), Y11
	VADDPS  Y11, Y7, Y7
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET

// func fmaKernel4x8(kc int64, a *float32, rs, ks int64, bp, c0, c1, c2, c3 *float32)
//
// fmaKernel4x16 for an 8-wide panel: one YMM accumulator per C row
// (Y0-Y3), one 8-wide B line and four broadcast FMAs per K iteration.
// Each lane sums exactly as the 4x16 kernel's lane for the same column.
TEXT ·fmaKernel4x8(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ rs+16(FP), R12
	MOVQ ks+24(FP), DX
	MOVQ bp+32(FP), BX
	MOVQ c0+40(FP), R8
	MOVQ c1+48(FP), R9
	MOVQ c2+56(FP), R10
	MOVQ c3+64(FP), R11
	SHLQ $2, R12
	SHLQ $2, DX
	LEAQ (R12)(R12*2), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

k8loop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (AX)(R12*1), Y11
	VFMADD231PS  Y8, Y11, Y1
	VBROADCASTSS (AX)(R12*2), Y12
	VFMADD231PS  Y8, Y12, Y2
	VBROADCASTSS (AX)(R13*1), Y13
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         DX, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          k8loop

	VMOVUPS (R8), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (R8)
	VMOVUPS (R9), Y9
	VADDPS  Y9, Y1, Y1
	VMOVUPS Y1, (R9)
	VMOVUPS (R10), Y10
	VADDPS  Y10, Y2, Y2
	VMOVUPS Y2, (R10)
	VMOVUPS (R11), Y11
	VADDPS  Y11, Y3, Y3
	VMOVUPS Y3, (R11)
	VZEROUPPER
	RET

// func vecMulAddAsm(dst, src *float32, s float32, n int64)
// dst[i] += s*src[i] for i < n; n > 0 and a multiple of 8.
//
// The product and the accumulate are issued as separate VMULPS/VADDPS
// instructions — never VFMADD — so every element sees the same two
// roundings as the scalar interpreter (a Mul step, then VecAdd), keeping
// the specialized kernels bitwise equal to the interpreted ones.
TEXT ·vecMulAddAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS s+16(FP), Y2
	MOVQ         n+24(FP), CX

mulAddLoop:
	VMOVUPS (SI), Y1
	VMULPS  Y2, Y1, Y1
	VMOVUPS (DI), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     mulAddLoop
	VZEROUPPER
	RET

// func vecAddAsm(dst, src *float32, n int64)
// dst[i] += src[i] for i < n; n > 0 and a multiple of 8.
TEXT ·vecAddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

addloop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     addloop
	VZEROUPPER
	RET

// func gatherMulAddAsm16(acc, src *float32, idx *int32, scale *float32, n int64)
// Batched gather-accumulate at row width 16:
//
//	for e < n: acc[j] += scale[e] * src[idx[e]*16 + j]
//
// The accumulator pair lives in Y0/Y1 for the whole block, each edge is
// one VMULPS + VADDPS per half (two separate roundings, never FMA — the
// bitwise contract with the interpreted Mul step + VecAdd), and the main
// loop prefetches the row eight edges ahead so the cold neighbour
// gathers overlap instead of serializing one miss per edge.
TEXT ·gatherMulAddAsm16(SB), NOSPLIT, $0-40
	MOVQ    acc+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    idx+16(FP), DX
	MOVQ    scale+24(FP), BX
	MOVQ    n+32(FP), CX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	XORQ    R8, R8
	MOVQ    CX, R9
	SUBQ    $8, R9       // prefetch horizon: edges [0, n-8) look ahead
	CMPQ    R9, $0
	JLE     g16tail

g16main:
	MOVL         32(DX)(R8*4), R10 // idx[e+8]
	SHLQ         $6, R10
	PREFETCHT0   (SI)(R10*1)
	MOVL         (DX)(R8*4), R10   // idx[e]
	SHLQ         $6, R10
	VBROADCASTSS (BX)(R8*4), Y2
	VMOVUPS      (SI)(R10*1), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VMOVUPS      32(SI)(R10*1), Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	INCQ         R8
	CMPQ         R8, R9
	JLT          g16main

g16tail:
	CMPQ         R8, CX
	JGE          g16done
	MOVL         (DX)(R8*4), R10
	SHLQ         $6, R10
	VBROADCASTSS (BX)(R8*4), Y2
	VMOVUPS      (SI)(R10*1), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VMOVUPS      32(SI)(R10*1), Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	INCQ         R8
	JMP          g16tail

g16done:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gatherMulAddAsm8(acc, src *float32, idx *int32, scale *float32, n int64)
// gatherMulAddAsm16 at row width 8: one YMM accumulator.
TEXT ·gatherMulAddAsm8(SB), NOSPLIT, $0-40
	MOVQ    acc+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    idx+16(FP), DX
	MOVQ    scale+24(FP), BX
	MOVQ    n+32(FP), CX
	VMOVUPS (DI), Y0
	XORQ    R8, R8
	MOVQ    CX, R9
	SUBQ    $8, R9
	CMPQ    R9, $0
	JLE     g8tail

g8main:
	MOVL         32(DX)(R8*4), R10
	SHLQ         $5, R10
	PREFETCHT0   (SI)(R10*1)
	MOVL         (DX)(R8*4), R10
	SHLQ         $5, R10
	VBROADCASTSS (BX)(R8*4), Y2
	VMOVUPS      (SI)(R10*1), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	INCQ         R8
	CMPQ         R8, R9
	JLT          g8main

g8tail:
	CMPQ         R8, CX
	JGE          g8done
	MOVL         (DX)(R8*4), R10
	SHLQ         $5, R10
	VBROADCASTSS (BX)(R8*4), Y2
	VMOVUPS      (SI)(R10*1), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	INCQ         R8
	JMP          g8tail

g8done:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func gemvAddAsm16(acc, w, x *float32, din int64)
// acc[o] += sum_i x[i]*w[i*16+o] for o < 16, with the per-o sums built in
// Y0/Y1 from zero in i order — one VMULPS + VADDPS per row, the exact
// rounding sequence of the interpreter's per-output dot products — and
// folded into acc with a final VADDPS (the accumulate step).
TEXT ·gemvAddAsm16(SB), NOSPLIT, $0-32
	MOVQ   acc+0(FP), DI
	MOVQ   w+8(FP), BX
	MOVQ   x+16(FP), SI
	MOVQ   din+24(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ  CX, CX
	JZ     gvadone

gvaloop:
	VBROADCASTSS (SI), Y2
	VMOVUPS      (BX), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VMOVUPS      32(BX), Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	ADDQ         $4, SI
	ADDQ         $64, BX
	DECQ         CX
	JNZ          gvaloop

gvadone:
	VMOVUPS (DI), Y5
	VADDPS  Y0, Y5, Y5
	VMOVUPS Y5, (DI)
	VMOVUPS 32(DI), Y6
	VADDPS  Y1, Y6, Y6
	VMOVUPS Y6, 32(DI)
	VZEROUPPER
	RET

// func gemvMulAddAsm16(acc, w, x *float32, din int64, s float32)
// gemvAddAsm16 with the transform output scaled before the fold:
// acc[o] += s * (sum_i x[i]*w[i*16+o]) — the scale multiply is one extra
// VMULPS rounding, matching an interpreted Mul step, then VecMulAdd's
// separate add rounding into acc.
TEXT ·gemvMulAddAsm16(SB), NOSPLIT, $0-36
	MOVQ   acc+0(FP), DI
	MOVQ   w+8(FP), BX
	MOVQ   x+16(FP), SI
	MOVQ   din+24(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ  CX, CX
	JZ     gvmdone

gvmloop:
	VBROADCASTSS (SI), Y2
	VMOVUPS      (BX), Y3
	VMULPS       Y2, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VMOVUPS      32(BX), Y4
	VMULPS       Y2, Y4, Y4
	VADDPS       Y4, Y1, Y1
	ADDQ         $4, SI
	ADDQ         $64, BX
	DECQ         CX
	JNZ          gvmloop

gvmdone:
	VBROADCASTSS s+32(FP), Y2
	VMULPS       Y2, Y0, Y0
	VMULPS       Y2, Y1, Y1
	VMOVUPS      (DI), Y5
	VADDPS       Y0, Y5, Y5
	VMOVUPS      Y5, (DI)
	VMOVUPS      32(DI), Y6
	VADDPS       Y1, Y6, Y6
	VMOVUPS      Y6, 32(DI)
	VZEROUPPER
	RET

// func gatherDotAsm8(out, a *float32, aoff *int64, b *float32, boff *int64, w8 int64)
// Eight order-preserving dot products in lockstep, one edge per lane:
//
//	out[e] = sum_{j<w8} a[aoff[e]+j] * b[boff[e]+j]      e < 8
//
// aoff/boff are the element offsets of each edge's row; w8 > 0 is a
// multiple of 8. Per group of eight columns every edge's products are formed with
// one VMULPS (each product rounded to float32), the 8x8 tile is transposed
// so that Tj holds column j of all eight edges, and the tile's columns are
// folded into the lane sums with VADDPS for j ascending. Every lane
// therefore sees exactly the scalar sequence s = 0; s += p_j — never an
// FMA, never a reassociated tree — which is the bitwise contract with the
// interpreter's Mul step + RowSum.
TEXT ·gatherDotAsm8(SB), NOSPLIT, $0-48
	MOVQ   out+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   aoff+16(FP), R8
	MOVQ   b+24(FP), DX
	MOVQ   boff+32(FP), R9
	MOVQ   w8+40(FP), CX
	VXORPS Y15, Y15, Y15

dot8loop:
	// Ye = a_e[j..j+8) * b_e[j..j+8)
	MOVQ    0(R8), R10
	MOVQ    0(R9), R11
	VMOVUPS (SI)(R10*4), Y0
	VMULPS  (DX)(R11*4), Y0, Y0
	MOVQ    8(R8), R10
	MOVQ    8(R9), R11
	VMOVUPS (SI)(R10*4), Y1
	VMULPS  (DX)(R11*4), Y1, Y1
	MOVQ    16(R8), R10
	MOVQ    16(R9), R11
	VMOVUPS (SI)(R10*4), Y2
	VMULPS  (DX)(R11*4), Y2, Y2
	MOVQ    24(R8), R10
	MOVQ    24(R9), R11
	VMOVUPS (SI)(R10*4), Y3
	VMULPS  (DX)(R11*4), Y3, Y3
	MOVQ    32(R8), R10
	MOVQ    32(R9), R11
	VMOVUPS (SI)(R10*4), Y4
	VMULPS  (DX)(R11*4), Y4, Y4
	MOVQ    40(R8), R10
	MOVQ    40(R9), R11
	VMOVUPS (SI)(R10*4), Y5
	VMULPS  (DX)(R11*4), Y5, Y5
	MOVQ    48(R8), R10
	MOVQ    48(R9), R11
	VMOVUPS (SI)(R10*4), Y6
	VMULPS  (DX)(R11*4), Y6, Y6
	MOVQ    56(R8), R10
	MOVQ    56(R9), R11
	VMOVUPS (SI)(R10*4), Y7
	VMULPS  (DX)(R11*4), Y7, Y7

	// 8x8 transpose, in place plus Y6/Y8 as spill: unpack pairs …
	VUNPCKLPS Y1, Y0, Y8 // t0
	VUNPCKHPS Y1, Y0, Y1 // t1
	VUNPCKLPS Y3, Y2, Y0 // t2
	VUNPCKHPS Y3, Y2, Y3 // t3
	VUNPCKLPS Y5, Y4, Y2 // t4
	VUNPCKHPS Y5, Y4, Y5 // t5
	VUNPCKLPS Y7, Y6, Y4 // t6
	VUNPCKHPS Y7, Y6, Y7 // t7

	// … shuffle quads …
	VSHUFPS $0x44, Y0, Y8, Y6 // tt0
	VSHUFPS $0xEE, Y0, Y8, Y8 // tt1
	VSHUFPS $0x44, Y3, Y1, Y0 // tt2
	VSHUFPS $0xEE, Y3, Y1, Y1 // tt3
	VSHUFPS $0x44, Y4, Y2, Y3 // tt4
	VSHUFPS $0xEE, Y4, Y2, Y2 // tt5
	VSHUFPS $0x44, Y7, Y5, Y4 // tt6
	VSHUFPS $0xEE, Y7, Y5, Y5 // tt7

	// … and join 128-bit halves, folding column j as soon as it exists.
	VPERM2F128 $0x20, Y3, Y6, Y7
	VADDPS     Y7, Y15, Y15      // j+0
	VPERM2F128 $0x20, Y2, Y8, Y9
	VADDPS     Y9, Y15, Y15      // j+1
	VPERM2F128 $0x20, Y4, Y0, Y7
	VADDPS     Y7, Y15, Y15      // j+2
	VPERM2F128 $0x20, Y5, Y1, Y9
	VADDPS     Y9, Y15, Y15      // j+3
	VPERM2F128 $0x31, Y3, Y6, Y7
	VADDPS     Y7, Y15, Y15      // j+4
	VPERM2F128 $0x31, Y2, Y8, Y9
	VADDPS     Y9, Y15, Y15      // j+5
	VPERM2F128 $0x31, Y4, Y0, Y7
	VADDPS     Y7, Y15, Y15      // j+6
	VPERM2F128 $0x31, Y5, Y1, Y9
	VADDPS     Y9, Y15, Y15      // j+7

	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  dot8loop

	VMOVUPS Y15, (DI)
	VZEROUPPER
	RET

// func prefetchT0(p *float32)
// Hints the cache line of p into L1; a pure scheduling hint with no
// architectural effect, so it stays active even with SIMD disabled.
TEXT ·prefetchT0(SB), NOSPLIT, $0-8
	MOVQ       p+0(FP), AX
	PREFETCHT0 (AX)
	RET
