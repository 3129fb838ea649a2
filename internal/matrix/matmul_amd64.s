#include "textflag.h"

// func cpuidAVX() bool
//
// AVX (CPUID.1:ECX bit 28), FMA3 (bit 12) and AVX2 (CPUID.7.0:EBX bit 5),
// with OSXSAVE (CPUID.1:ECX bit 27) and the OS saving XMM and YMM state (XCR0
// bits 1 and 2).
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVL	$0, AX
	CPUID
	CMPL	AX, $7
	JLT	noavx
	MOVL	$1, AX
	MOVL	$0, CX
	CPUID
	MOVL	CX, BX
	ANDL	$(1<<12 | 1<<27 | 1<<28), BX
	CMPL	BX, $(1<<12 | 1<<27 | 1<<28)
	JNE	noavx
	MOVL	$7, AX
	MOVL	$0, CX
	CPUID
	TESTL	$(1<<5), BX
	JZ	noavx
	MOVL	$0, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func microAVX4x8(a, b, out *float64, kn, ldaB, ldbB, ldoB uintptr)
//
// Accumulates a 4x8 block: out[r][c] += sum_k a[r][k]*b[k][c], each element
// in its own accumulator lane as acc = fma(a, b, acc), k ascending — the
// arithmetic of micro4x4 and edgeTile.
TEXT ·microAVX4x8(SB), NOSPLIT, $0-56
	MOVQ	a+0(FP), BX
	MOVQ	b+8(FP), CX
	MOVQ	out+16(FP), DX
	MOVQ	kn+24(FP), SI
	MOVQ	ldaB+32(FP), R8
	MOVQ	ldbB+40(FP), R9
	MOVQ	ldoB+48(FP), R10
	LEAQ	(R8)(R8*2), R11
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
kloop:
	VMOVUPD	(CX), Y8
	VMOVUPD	32(CX), Y9
	VBROADCASTSD	(BX), Y10
	VBROADCASTSD	(BX)(R8*1), Y11
	VBROADCASTSD	(BX)(R8*2), Y12
	VBROADCASTSD	(BX)(R11*1), Y13
	VFMADD231PD	Y8, Y10, Y0
	VFMADD231PD	Y9, Y10, Y1
	VFMADD231PD	Y8, Y11, Y2
	VFMADD231PD	Y9, Y11, Y3
	VFMADD231PD	Y8, Y12, Y4
	VFMADD231PD	Y9, Y12, Y5
	VFMADD231PD	Y8, Y13, Y6
	VFMADD231PD	Y9, Y13, Y7
	ADDQ	$8, BX
	ADDQ	R9, CX
	DECQ	SI
	JNZ	kloop
	VADDPD	(DX), Y0, Y0
	VMOVUPD	Y0, (DX)
	VADDPD	32(DX), Y1, Y1
	VMOVUPD	Y1, 32(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Y2, Y2
	VMOVUPD	Y2, (DX)
	VADDPD	32(DX), Y3, Y3
	VMOVUPD	Y3, 32(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Y4, Y4
	VMOVUPD	Y4, (DX)
	VADDPD	32(DX), Y5, Y5
	VMOVUPD	Y5, 32(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Y6, Y6
	VMOVUPD	Y6, (DX)
	VADDPD	32(DX), Y7, Y7
	VMOVUPD	Y7, 32(DX)
	VZEROUPPER
	RET

// func sddmmAVX(rowPtr, col *int, rLo, rHi, nnz int, a, bt, acc *float64, k int)
//
// For every stored position q of mask rows [rLo, rHi), in (i, col[q]) order:
// acc[q] += a[i,:] . bt[col[q],:] over k elements, with the arithmetic of
// dot: the four lanes of Y0 are its partial sums s0..s3 (multiply, then add —
// not fused), the k%4 tail elements go into lane 0 with scalar operations,
// and the sums combine as (s0+s1)+(s2+s3). While a dot product runs, the bt
// row of the next stored position is prefetched line by line; the last
// position (q+1 == nnz) prefetches its own row, so col[nnz] is never read.
//
// Registers: R10 i, R13 &a[i*k], DI row bytes, SI q, CX end of row i's
// positions, BX bt row cursor, DX a row minus bt row, AX prefetch row minus
// bt row, R11/R12 bytes in whole groups of 8/4 elements, R8 scratch.
TEXT ·sddmmAVX(SB), NOSPLIT, $0-72
	MOVQ	col+8(FP), R9
	MOVQ	rLo+16(FP), R10
	MOVQ	a+40(FP), R13
	MOVQ	bt+48(FP), R14
	MOVQ	acc+56(FP), R15
	MOVQ	k+64(FP), DI
	SHLQ	$3, DI
	MOVQ	DI, R11
	ANDQ	$-64, R11
	MOVQ	DI, R12
	ANDQ	$-32, R12
	MOVQ	R10, AX
	IMULQ	DI, AX
	ADDQ	AX, R13
rowloop:
	CMPQ	R10, rHi+24(FP)
	JGE	done
	MOVQ	rowPtr+0(FP), R8
	MOVQ	(R8)(R10*8), SI
	MOVQ	8(R8)(R10*8), CX
	JMP	nzcheck
nzloop:
	MOVQ	(R9)(SI*8), BX
	IMULQ	DI, BX
	ADDQ	R14, BX
	LEAQ	1(SI), DX
	MOVQ	SI, AX
	CMPQ	DX, nnz+32(FP)
	CMOVQLT	DX, AX
	MOVQ	(R9)(AX*8), AX
	IMULQ	DI, AX
	ADDQ	R14, AX
	SUBQ	BX, AX
	MOVQ	R13, DX
	SUBQ	BX, DX
	VXORPD	Y0, Y0, Y0
	LEAQ	(BX)(R11*1), R8
	CMPQ	BX, R8
	JEQ	four
loop8:
	PREFETCHT0	(BX)(AX*1)
	VMOVUPD	(BX)(DX*1), Y1
	VMULPD	(BX), Y1, Y1
	VADDPD	Y1, Y0, Y0
	VMOVUPD	32(BX)(DX*1), Y2
	VMULPD	32(BX), Y2, Y2
	VADDPD	Y2, Y0, Y0
	ADDQ	$64, BX
	CMPQ	BX, R8
	JNE	loop8
four:
	CMPQ	R11, R12
	JEQ	tail
	VMOVUPD	(BX)(DX*1), Y1
	VMULPD	(BX), Y1, Y1
	VADDPD	Y1, Y0, Y0
	ADDQ	$32, BX
tail:
	VEXTRACTF128	$1, Y0, X1
	MOVQ	DI, R8
	SUBQ	R12, R8
	JZ	combine
tailloop:
	VMOVSD	(BX)(DX*1), X2
	VMULSD	(BX), X2, X2
	VADDSD	X2, X0, X0
	ADDQ	$8, BX
	SUBQ	$8, R8
	JNZ	tailloop
combine:
	VHADDPD	X1, X0, X0
	VHADDPD	X0, X0, X0
	VADDSD	(R15)(SI*8), X0, X0
	VMOVSD	X0, (R15)(SI*8)
	INCQ	SI
nzcheck:
	CMPQ	SI, CX
	JLT	nzloop
	ADDQ	DI, R13
	INCQ	R10
	JMP	rowloop
done:
	VZEROUPPER
	RET

// func axpyAVX(dst, x *float64, n int, s float64)
//
// dst[j] += s * x[j] for j < n: multiply, then add (not fused), four lanes at
// a time and a scalar tail — the arithmetic of axpy's portable loop.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	s+24(FP), Y0
	MOVQ	CX, DX
	ANDQ	$3, CX
	SHRQ	$2, DX
	JZ	axtail
axloop:
	VMULPD	(SI), Y0, Y1
	VADDPD	(DI), Y1, Y1
	VMOVUPD	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	axloop
axtail:
	TESTQ	CX, CX
	JZ	axdone
axtailloop:
	VMULSD	(SI), X0, X1
	VADDSD	(DI), X1, X1
	VMOVSD	X1, (DI)
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	axtailloop
axdone:
	VZEROUPPER
	RET
