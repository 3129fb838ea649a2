#include "textflag.h"

// func cpuidLevel() int
//
// 1 (levelAVX2) with AVX (CPUID.1:ECX bit 28), FMA3 (bit 12) and AVX2
// (CPUID.7.0:EBX bit 5), OSXSAVE (CPUID.1:ECX bit 27) and the OS saving XMM
// and YMM state (XCR0 bits 1 and 2); 2 (levelAVX512) with AVX-512F
// (CPUID.7.0:EBX bit 16) and the OS saving opmask and ZMM state as well
// (XCR0 bits 5, 6 and 7) on top of that; otherwise 0 (levelPortable).
TEXT ·cpuidLevel(SB), NOSPLIT, $0-8
	MOVQ	$0, ret+0(FP)
	MOVL	$0, AX
	CPUID
	CMPL	AX, $7
	JLT	leveldone
	MOVL	$1, AX
	MOVL	$0, CX
	CPUID
	MOVL	CX, BX
	ANDL	$(1<<12 | 1<<27 | 1<<28), BX
	CMPL	BX, $(1<<12 | 1<<27 | 1<<28)
	JNE	leveldone
	MOVL	$7, AX
	MOVL	$0, CX
	CPUID
	TESTL	$(1<<5), BX
	JZ	leveldone
	MOVL	BX, DI
	MOVL	$0, CX
	XGETBV
	MOVL	AX, SI
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	leveldone
	MOVQ	$1, ret+0(FP)
	TESTL	$(1<<16), DI
	JZ	leveldone
	ANDL	$0xE6, SI
	CMPL	SI, $0xE6
	JNE	leveldone
	MOVQ	$2, ret+0(FP)
leveldone:
	RET

// func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr)
//
// Accumulates a 4x8 block: out[r][c] += sum_k a[r][k]*b[k][c], each element
// in its own accumulator lane as acc = fma(a, b, acc), k ascending — the
// arithmetic of micro4x4 and edgeTile. a[r][k] lies at a + r*ldaB + k*ldkB.
TEXT ·microAVX4x8(SB), NOSPLIT, $0-64
	MOVQ	a+0(FP), BX
	MOVQ	b+8(FP), CX
	MOVQ	out+16(FP), DX
	MOVQ	kn+24(FP), SI
	MOVQ	ldaB+32(FP), R8
	MOVQ	ldkB+40(FP), R12
	MOVQ	ldbB+48(FP), R9
	MOVQ	ldoB+56(FP), R10
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
	ADDQ	R12, BX
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

// func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr)
//
// microAVX4x8 at ZMM width: an 8x16 block in sixteen accumulators (row r in
// Z(2r), Z(2r+1)), two loads of b and one broadcast of a per row and step —
// the same acc = fma(a, b, acc) per element, k ascending, and one add into
// out. Zeroed with VPXORQ: VXORPD on ZMM registers is AVX-512DQ, not F.
//
// Registers: R8 a's row stride, R11/R12/R13 three, five and seven times it,
// R14 a's k stride.
TEXT ·microAVX512x8x16(SB), NOSPLIT, $0-64
	MOVQ	a+0(FP), BX
	MOVQ	b+8(FP), CX
	MOVQ	out+16(FP), DX
	MOVQ	kn+24(FP), SI
	MOVQ	ldaB+32(FP), R8
	MOVQ	ldkB+40(FP), R14
	MOVQ	ldbB+48(FP), R9
	MOVQ	ldoB+56(FP), R10
	LEAQ	(R8)(R8*2), R11
	LEAQ	(R8)(R8*4), R12
	LEAQ	(R11)(R8*4), R13
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z4, Z4, Z4
	VPXORQ	Z5, Z5, Z5
	VPXORQ	Z6, Z6, Z6
	VPXORQ	Z7, Z7, Z7
	VPXORQ	Z8, Z8, Z8
	VPXORQ	Z9, Z9, Z9
	VPXORQ	Z10, Z10, Z10
	VPXORQ	Z11, Z11, Z11
	VPXORQ	Z12, Z12, Z12
	VPXORQ	Z13, Z13, Z13
	VPXORQ	Z14, Z14, Z14
	VPXORQ	Z15, Z15, Z15
kloop512:
	VMOVUPD	(CX), Z16
	VMOVUPD	64(CX), Z17
	VBROADCASTSD	(BX), Z18
	VBROADCASTSD	(BX)(R8*1), Z19
	VBROADCASTSD	(BX)(R8*2), Z20
	VBROADCASTSD	(BX)(R11*1), Z21
	VBROADCASTSD	(BX)(R8*4), Z22
	VBROADCASTSD	(BX)(R12*1), Z23
	VBROADCASTSD	(BX)(R11*2), Z24
	VBROADCASTSD	(BX)(R13*1), Z25
	VFMADD231PD	Z16, Z18, Z0
	VFMADD231PD	Z17, Z18, Z1
	VFMADD231PD	Z16, Z19, Z2
	VFMADD231PD	Z17, Z19, Z3
	VFMADD231PD	Z16, Z20, Z4
	VFMADD231PD	Z17, Z20, Z5
	VFMADD231PD	Z16, Z21, Z6
	VFMADD231PD	Z17, Z21, Z7
	VFMADD231PD	Z16, Z22, Z8
	VFMADD231PD	Z17, Z22, Z9
	VFMADD231PD	Z16, Z23, Z10
	VFMADD231PD	Z17, Z23, Z11
	VFMADD231PD	Z16, Z24, Z12
	VFMADD231PD	Z17, Z24, Z13
	VFMADD231PD	Z16, Z25, Z14
	VFMADD231PD	Z17, Z25, Z15
	ADDQ	R14, BX
	ADDQ	R9, CX
	DECQ	SI
	JNZ	kloop512
	VADDPD	(DX), Z0, Z0
	VMOVUPD	Z0, (DX)
	VADDPD	64(DX), Z1, Z1
	VMOVUPD	Z1, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z2, Z2
	VMOVUPD	Z2, (DX)
	VADDPD	64(DX), Z3, Z3
	VMOVUPD	Z3, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z4, Z4
	VMOVUPD	Z4, (DX)
	VADDPD	64(DX), Z5, Z5
	VMOVUPD	Z5, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z6, Z6
	VMOVUPD	Z6, (DX)
	VADDPD	64(DX), Z7, Z7
	VMOVUPD	Z7, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z8, Z8
	VMOVUPD	Z8, (DX)
	VADDPD	64(DX), Z9, Z9
	VMOVUPD	Z9, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z10, Z10
	VMOVUPD	Z10, (DX)
	VADDPD	64(DX), Z11, Z11
	VMOVUPD	Z11, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z12, Z12
	VMOVUPD	Z12, (DX)
	VADDPD	64(DX), Z13, Z13
	VMOVUPD	Z13, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z14, Z14
	VMOVUPD	Z14, (DX)
	VADDPD	64(DX), Z15, Z15
	VMOVUPD	Z15, 64(DX)
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

// func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int)
//
// CSR x dense over rows [rLo, rHi) of the CSR operand (rowPtr, col, val): for
// each row i and output column j, s = +0, then s += val[q] * b[col[q]][j]
// (multiply, then add — not fused) over the row's stored positions in order,
// and acc[i][j] += s once. Columns go sixteen at a time (Y0..Y3 hold the
// strip's sums), then four (Y0), then one (lane 0): per element the
// arithmetic of spmmRows's portable loops.
//
// Registers: R8 rowPtr, R9 col, R10 val, R11 i, R12 rHi, R13 b, R14 &acc[i][0],
// DI row bytes, SI/CX row i's first and end position, AX position, BX strip
// byte offset, DX &b[col[q]][0] (and scratch).
TEXT ·spmmRowsAVX(SB), NOSPLIT, $0-64
	MOVQ	rowPtr+0(FP), R8
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	rLo+24(FP), R11
	MOVQ	rHi+32(FP), R12
	MOVQ	b+40(FP), R13
	MOVQ	acc+48(FP), R14
	MOVQ	n+56(FP), DI
	SHLQ	$3, DI
	MOVQ	R11, AX
	IMULQ	DI, AX
	ADDQ	AX, R14
srow:
	CMPQ	R11, R12
	JGE	sdone
	MOVQ	(R8)(R11*8), SI
	MOVQ	8(R8)(R11*8), CX
	XORQ	BX, BX
s16:
	LEAQ	128(BX), DX
	CMPQ	DX, DI
	JGT	s4
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	SI, AX
	JMP	s16check
s16nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Y4
	VMULPD	(DX)(BX*1), Y4, Y5
	VADDPD	Y5, Y0, Y0
	VMULPD	32(DX)(BX*1), Y4, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	64(DX)(BX*1), Y4, Y7
	VADDPD	Y7, Y2, Y2
	VMULPD	96(DX)(BX*1), Y4, Y8
	VADDPD	Y8, Y3, Y3
	INCQ	AX
s16check:
	CMPQ	AX, CX
	JLT	s16nz
	VADDPD	(R14)(BX*1), Y0, Y0
	VMOVUPD	Y0, (R14)(BX*1)
	VADDPD	32(R14)(BX*1), Y1, Y1
	VMOVUPD	Y1, 32(R14)(BX*1)
	VADDPD	64(R14)(BX*1), Y2, Y2
	VMOVUPD	Y2, 64(R14)(BX*1)
	VADDPD	96(R14)(BX*1), Y3, Y3
	VMOVUPD	Y3, 96(R14)(BX*1)
	ADDQ	$128, BX
	JMP	s16
s4:
	LEAQ	32(BX), DX
	CMPQ	DX, DI
	JGT	s1
	VXORPD	Y0, Y0, Y0
	MOVQ	SI, AX
	JMP	s4check
s4nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Y4
	VMULPD	(DX)(BX*1), Y4, Y5
	VADDPD	Y5, Y0, Y0
	INCQ	AX
s4check:
	CMPQ	AX, CX
	JLT	s4nz
	VADDPD	(R14)(BX*1), Y0, Y0
	VMOVUPD	Y0, (R14)(BX*1)
	ADDQ	$32, BX
	JMP	s4
s1:
	CMPQ	BX, DI
	JGE	snext
	VXORPD	X0, X0, X0
	MOVQ	SI, AX
	JMP	s1check
s1nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VMOVSD	(R10)(AX*8), X4
	VMULSD	(DX)(BX*1), X4, X5
	VADDSD	X5, X0, X0
	INCQ	AX
s1check:
	CMPQ	AX, CX
	JLT	s1nz
	VADDSD	(R14)(BX*1), X0, X0
	VMOVSD	X0, (R14)(BX*1)
	ADDQ	$8, BX
	JMP	s1
snext:
	ADDQ	DI, R14
	INCQ	R11
	JMP	srow
sdone:
	VZEROUPPER
	RET

// func spmmTRowAVX(a *float64, col *int, val *float64, nnz int, accT *float64, ldT, m int)
//
// One row k of the dense x CSR product: for the row's nnz stored positions
// (col, val) and columns c < m, accT[col[q]][c] += val[q] * a[c] (multiply,
// then add — not fused), accT's rows ldT elements apart. The row of a stays
// in registers while the positions stream past: sixteen columns at a time
// (Y0..Y3), then four (Y0), then one (lane 0). nnz must be positive.
//
// Registers: SI a, R9 col, R10 val, CX nnz, R14 accT, R8 accT's row bytes,
// DI m in bytes, AX position, BX strip byte offset, DX &accT[col[q]][0].
TEXT ·spmmTRowAVX(SB), NOSPLIT, $0-56
	MOVQ	a+0(FP), SI
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	nnz+24(FP), CX
	MOVQ	accT+32(FP), R14
	MOVQ	ldT+40(FP), R8
	SHLQ	$3, R8
	MOVQ	m+48(FP), DI
	SHLQ	$3, DI
	XORQ	BX, BX
t16:
	LEAQ	128(BX), DX
	CMPQ	DX, DI
	JGT	t4
	VMOVUPD	(SI)(BX*1), Y0
	VMOVUPD	32(SI)(BX*1), Y1
	VMOVUPD	64(SI)(BX*1), Y2
	VMOVUPD	96(SI)(BX*1), Y3
	XORQ	AX, AX
t16nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R8, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Y4
	VMULPD	Y0, Y4, Y5
	VADDPD	(DX)(BX*1), Y5, Y5
	VMOVUPD	Y5, (DX)(BX*1)
	VMULPD	Y1, Y4, Y6
	VADDPD	32(DX)(BX*1), Y6, Y6
	VMOVUPD	Y6, 32(DX)(BX*1)
	VMULPD	Y2, Y4, Y7
	VADDPD	64(DX)(BX*1), Y7, Y7
	VMOVUPD	Y7, 64(DX)(BX*1)
	VMULPD	Y3, Y4, Y8
	VADDPD	96(DX)(BX*1), Y8, Y8
	VMOVUPD	Y8, 96(DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	t16nz
	ADDQ	$128, BX
	JMP	t16
t4:
	LEAQ	32(BX), DX
	CMPQ	DX, DI
	JGT	t1
	VMOVUPD	(SI)(BX*1), Y0
	XORQ	AX, AX
t4nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R8, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Y4
	VMULPD	Y0, Y4, Y5
	VADDPD	(DX)(BX*1), Y5, Y5
	VMOVUPD	Y5, (DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	t4nz
	ADDQ	$32, BX
	JMP	t4
t1:
	CMPQ	BX, DI
	JGE	tdone
	VMOVSD	(SI)(BX*1), X0
	XORQ	AX, AX
t1nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R8, DX
	ADDQ	R14, DX
	VMOVSD	(R10)(AX*8), X4
	VMULSD	X0, X4, X5
	VADDSD	(DX)(BX*1), X5, X5
	VMOVSD	X5, (DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	t1nz
	ADDQ	$8, BX
	JMP	t1
tdone:
	VZEROUPPER
	RET

// func fmaPeakAVX2(n int)
//
// n rounds of twelve independent VFMADD231PD on YMM registers and nothing
// else: the rate no kernel of four lanes can pass (BenchmarkFMAPeak).
TEXT ·fmaPeakAVX2(SB), NOSPLIT, $0-8
	MOVQ	n+0(FP), CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	VXORPD	Y8, Y8, Y8
	VXORPD	Y9, Y9, Y9
	VXORPD	Y10, Y10, Y10
	VXORPD	Y11, Y11, Y11
	VXORPD	Y12, Y12, Y12
	VXORPD	Y13, Y13, Y13
	VXORPD	Y14, Y14, Y14
	VXORPD	Y15, Y15, Y15
peakloop:
	VFMADD231PD	Y14, Y15, Y0
	VFMADD231PD	Y14, Y15, Y1
	VFMADD231PD	Y14, Y15, Y2
	VFMADD231PD	Y14, Y15, Y3
	VFMADD231PD	Y14, Y15, Y4
	VFMADD231PD	Y14, Y15, Y5
	VFMADD231PD	Y14, Y15, Y6
	VFMADD231PD	Y14, Y15, Y7
	VFMADD231PD	Y14, Y15, Y8
	VFMADD231PD	Y14, Y15, Y9
	VFMADD231PD	Y14, Y15, Y10
	VFMADD231PD	Y14, Y15, Y11
	DECQ	CX
	JNZ	peakloop
	VZEROUPPER
	RET

// func fmaPeakAVX512(n int)
//
// fmaPeakAVX2 on ZMM registers: sixteen independent VFMADD231PD a round.
TEXT ·fmaPeakAVX512(SB), NOSPLIT, $0-8
	MOVQ	n+0(FP), CX
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z4, Z4, Z4
	VPXORQ	Z5, Z5, Z5
	VPXORQ	Z6, Z6, Z6
	VPXORQ	Z7, Z7, Z7
	VPXORQ	Z8, Z8, Z8
	VPXORQ	Z9, Z9, Z9
	VPXORQ	Z10, Z10, Z10
	VPXORQ	Z11, Z11, Z11
	VPXORQ	Z12, Z12, Z12
	VPXORQ	Z13, Z13, Z13
	VPXORQ	Z14, Z14, Z14
	VPXORQ	Z15, Z15, Z15
	VPXORQ	Z16, Z16, Z16
	VPXORQ	Z17, Z17, Z17
peakloop512:
	VFMADD231PD	Z16, Z17, Z0
	VFMADD231PD	Z16, Z17, Z1
	VFMADD231PD	Z16, Z17, Z2
	VFMADD231PD	Z16, Z17, Z3
	VFMADD231PD	Z16, Z17, Z4
	VFMADD231PD	Z16, Z17, Z5
	VFMADD231PD	Z16, Z17, Z6
	VFMADD231PD	Z16, Z17, Z7
	VFMADD231PD	Z16, Z17, Z8
	VFMADD231PD	Z16, Z17, Z9
	VFMADD231PD	Z16, Z17, Z10
	VFMADD231PD	Z16, Z17, Z11
	VFMADD231PD	Z16, Z17, Z12
	VFMADD231PD	Z16, Z17, Z13
	VFMADD231PD	Z16, Z17, Z14
	VFMADD231PD	Z16, Z17, Z15
	DECQ	CX
	JNZ	peakloop512
	VZEROUPPER
	RET

// func nnzAVX512(x *float64, n int) int
//
// The number of the n values at x (n a multiple of 8) that compare unequal
// to zero: VCMPPD's NEQ_UQ predicate (4) against a zeroed register, so NaN
// counts and -0 does not, as v != 0 has it in Go. Thirty-two values per step
// in four compares, then eight per step; each compare's mask is counted by
// POPCNT, which every AVX-512 machine has.
TEXT ·nnzAVX512(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	n+8(FP), CX
	XORQ	DX, DX
	VPXORQ	Z0, Z0, Z0
	CMPQ	CX, $32
	JLT	nnz8
nnz32:
	VCMPPD	$4, (SI), Z0, K1
	VCMPPD	$4, 64(SI), Z0, K2
	VCMPPD	$4, 128(SI), Z0, K3
	VCMPPD	$4, 192(SI), Z0, K4
	KMOVW	K1, AX
	KMOVW	K2, BX
	KMOVW	K3, R8
	KMOVW	K4, R9
	POPCNTL	AX, AX
	POPCNTL	BX, BX
	POPCNTL	R8, R8
	POPCNTL	R9, R9
	ADDQ	AX, DX
	ADDQ	BX, DX
	ADDQ	R8, DX
	ADDQ	R9, DX
	ADDQ	$256, SI
	SUBQ	$32, CX
	CMPQ	CX, $32
	JGE	nnz32
nnz8:
	CMPQ	CX, $8
	JLT	nnzdone
	VCMPPD	$4, (SI), Z0, K1
	KMOVW	K1, AX
	POPCNTL	AX, AX
	ADDQ	AX, DX
	ADDQ	$64, SI
	SUBQ	$8, CX
	JMP	nnz8
nnzdone:
	VZEROUPPER
	MOVQ	DX, ret+16(FP)
	RET
