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

// func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr)
//
// Accumulates a 4x8 block: out[r][c] += sum_k a[r][k]*b[k][c], each element
// in its own accumulator lane as acc = fma(a, b, acc), k ascending, then
// out + (acc + 0) — the arithmetic of micro4x4 and edgeTile. Adding +0 first
// turns a -0 sum into +0, so a -0 in out is left as adding the product's
// block would leave it. a[r][k] lies at a + r*ldaB + k*ldkB. With store set,
// out's values are not used: each element gets (acc + 0) + 0, the bits of
// adding the sum onto +0 — out is ANDed with Y14, all ones or all zeros.
TEXT ·microAVX4x8(SB), NOSPLIT, $0-72
	MOVQ	a+0(FP), BX
	MOVQ	b+8(FP), CX
	MOVQ	out+16(FP), DX
	MOVQ	kn+24(FP), SI
	MOVQ	ldaB+32(FP), R8
	MOVQ	ldkB+40(FP), R12
	MOVQ	ldbB+48(FP), R9
	MOVQ	ldoB+56(FP), R10
	LEAQ	(R8)(R8*2), R11
	MOVQ	store+64(FP), AX
	DECQ	AX
	MOVQ	AX, X14
	VPBROADCASTQ	X14, Y14
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
	VXORPD	Y8, Y8, Y8
	VADDPD	Y8, Y0, Y0
	VADDPD	Y8, Y1, Y1
	VADDPD	Y8, Y2, Y2
	VADDPD	Y8, Y3, Y3
	VADDPD	Y8, Y4, Y4
	VADDPD	Y8, Y5, Y5
	VADDPD	Y8, Y6, Y6
	VADDPD	Y8, Y7, Y7
	VANDPD	(DX), Y14, Y9
	VADDPD	Y9, Y0, Y0
	VMOVUPD	Y0, (DX)
	VANDPD	32(DX), Y14, Y9
	VADDPD	Y9, Y1, Y1
	VMOVUPD	Y1, 32(DX)
	ADDQ	R10, DX
	VANDPD	(DX), Y14, Y9
	VADDPD	Y9, Y2, Y2
	VMOVUPD	Y2, (DX)
	VANDPD	32(DX), Y14, Y9
	VADDPD	Y9, Y3, Y3
	VMOVUPD	Y3, 32(DX)
	ADDQ	R10, DX
	VANDPD	(DX), Y14, Y9
	VADDPD	Y9, Y4, Y4
	VMOVUPD	Y4, (DX)
	VANDPD	32(DX), Y14, Y9
	VADDPD	Y9, Y5, Y5
	VMOVUPD	Y5, 32(DX)
	ADDQ	R10, DX
	VANDPD	(DX), Y14, Y9
	VADDPD	Y9, Y6, Y6
	VMOVUPD	Y6, (DX)
	VANDPD	32(DX), Y14, Y9
	VADDPD	Y9, Y7, Y7
	VMOVUPD	Y7, 32(DX)
	VZEROUPPER
	RET

// func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr)
//
// microAVX4x8 at ZMM width: an 8x16 block in sixteen accumulators (row r in
// Z(2r), Z(2r+1)), two loads of b and one broadcast of a per row and step —
// the same acc = fma(a, b, acc) per element, k ascending, and one add of
// acc + 0 into out, or with store set acc + 0 stored: the add of out runs
// under the opmask K2, all lanes or none, and a lane it skips reads nothing.
// Zeroed with VPXORQ: VXORPD on ZMM registers is AVX-512DQ, not F.
//
// Registers: R8 a's row stride, R11/R12/R13 three, five and seven times it,
// R14 a's k stride.
TEXT ·microAVX512x8x16(SB), NOSPLIT, $0-72
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
	MOVQ	store+64(FP), AX
	DECQ	AX
	KMOVW	AX, K2
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
	VPXORQ	Z16, Z16, Z16
	VADDPD	Z16, Z0, Z0
	VADDPD	Z16, Z1, Z1
	VADDPD	Z16, Z2, Z2
	VADDPD	Z16, Z3, Z3
	VADDPD	Z16, Z4, Z4
	VADDPD	Z16, Z5, Z5
	VADDPD	Z16, Z6, Z6
	VADDPD	Z16, Z7, Z7
	VADDPD	Z16, Z8, Z8
	VADDPD	Z16, Z9, Z9
	VADDPD	Z16, Z10, Z10
	VADDPD	Z16, Z11, Z11
	VADDPD	Z16, Z12, Z12
	VADDPD	Z16, Z13, Z13
	VADDPD	Z16, Z14, Z14
	VADDPD	Z16, Z15, Z15
	VADDPD	(DX), Z0, K2, Z0
	VMOVUPD	Z0, (DX)
	VADDPD	64(DX), Z1, K2, Z1
	VMOVUPD	Z1, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z2, K2, Z2
	VMOVUPD	Z2, (DX)
	VADDPD	64(DX), Z3, K2, Z3
	VMOVUPD	Z3, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z4, K2, Z4
	VMOVUPD	Z4, (DX)
	VADDPD	64(DX), Z5, K2, Z5
	VMOVUPD	Z5, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z6, K2, Z6
	VMOVUPD	Z6, (DX)
	VADDPD	64(DX), Z7, K2, Z7
	VMOVUPD	Z7, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z8, K2, Z8
	VMOVUPD	Z8, (DX)
	VADDPD	64(DX), Z9, K2, Z9
	VMOVUPD	Z9, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z10, K2, Z10
	VMOVUPD	Z10, (DX)
	VADDPD	64(DX), Z11, K2, Z11
	VMOVUPD	Z11, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z12, K2, Z12
	VMOVUPD	Z12, (DX)
	VADDPD	64(DX), Z13, K2, Z13
	VMOVUPD	Z13, 64(DX)
	ADDQ	R10, DX
	VADDPD	(DX), Z14, K2, Z14
	VMOVUPD	Z14, (DX)
	VADDPD	64(DX), Z15, K2, Z15
	VMOVUPD	Z15, 64(DX)
	VZEROUPPER
	RET

// func sddmmGroupAVX512(terms *sddmmTerm, n, rLo, rHi int, a *float64, k int)
//
// For each mask row i of [rLo, rHi), for each of the n (at most 16) terms in
// turn, for every stored position q of the term's row i:
// acc[q] += a[i,:] . bt[col[q],:] over k elements, with the arithmetic of dot.
//
// The walk queues each position as an (a row, bt row, acc position) entry in
// a 64-entry ring on the stack and, at the end of each row, runs the queued
// entries four at a time while four remain; the rest wait for the next row.
// A term row with at most two positions is queued without a branch on its
// count: two entries are written — the second, or both, beyond the count
// when the row is shorter, never past the term's last position — and the
// count is added to the write index. A longer row queues its positions one
// by one and runs the quads as they fill. While it reads a term's row, the
// walk prefetches the term's row pointers, column indices and values 128
// bytes ahead.
//
// A quad runs four dots at once, each in its own accumulator Y0..Y3, whose
// lanes are dot's partial sums s0..s3: per 8 elements, four 8-lane
// multiplies, and each product's low half, then its high half, is added into
// its dot's accumulator — the order of dot's 4-element steps. A 4-element
// step follows when k%8 >= 4, the k%4 tail elements go into lane 0 with
// scalar operations, and the sums combine as (s0+s1)+(s2+s3). The call's last
// quad, when short, is filled with the dot of its first a row with itself,
// added into a scratch word.
//
// Frame: 0..504(SP) the ring's a rows, 512..1016(SP) its bt rows,
// 1024..1528(SP) its acc positions, 1536(SP) the scratch word, 1544(SP) the
// read index, 1552(SP) where a quad run returns to (0: the next row, 1: the
// long row being queued, 2: the end), 1560..1592(SP) the walk's i, a row,
// term, q and positions left while quads run. Registers while walking: R10
// i, R13 &a[i*k], DI row bytes, R14 end of terms, R15 term, DX write index,
// SI q, CX positions, R8/R9/R12 the term's col, bt and acc; while a quad
// runs: R8..R11 its a rows, R12..R15 its bt rows, BX byte offset, AX bytes in
// whole groups of 8, CX in whole groups of 4.
TEXT ·sddmmGroupAVX512(SB), 0, $1600-48
	MOVQ	terms+0(FP), R14
	MOVQ	n+8(FP), AX
	LEAQ	(AX)(AX*4), AX
	LEAQ	(R14)(AX*8), R14
	MOVQ	rLo+16(FP), R10
	MOVQ	a+32(FP), R13
	MOVQ	k+40(FP), DI
	SHLQ	$3, DI
	MOVQ	R10, AX
	IMULQ	DI, AX
	ADDQ	AX, R13
	XORQ	DX, DX
	MOVQ	DX, 1544(SP)
grow:
	CMPQ	R10, rHi+24(FP)
	JGE	gend
	MOVQ	terms+0(FP), R15
	PCALIGN	$64
gterm:
	CMPQ	R15, R14
	JEQ	growend
	MOVQ	(R15), AX
	MOVQ	(AX)(R10*8), SI
	MOVQ	8(AX)(R10*8), CX
	MOVQ	8(R15), R8
	MOVQ	16(R15), R9
	MOVQ	24(R15), R12
	PREFETCHT0	128(AX)(R10*8)
	PREFETCHT0	128(R8)(SI*8)
	PREFETCHT0	128(R12)(SI*8)
	SUBQ	SI, CX
	CMPQ	CX, $2
	JGT	gslow
	MOVQ	32(R15), R11
	DECQ	R11
	MOVQ	SI, AX
	CMPQ	AX, R11
	CMOVQGT	R11, AX
	LEAQ	1(SI), BX
	CMPQ	BX, R11
	CMOVQGT	R11, BX
	MOVQ	DX, SI
	ANDQ	$63, SI
	MOVQ	R13, (SP)(SI*8)
	LEAQ	(R12)(AX*8), R11
	MOVQ	R11, 1024(SP)(SI*8)
	MOVQ	(R8)(AX*8), AX
	IMULQ	DI, AX
	ADDQ	R9, AX
	MOVQ	AX, 512(SP)(SI*8)
	INCQ	SI
	ANDQ	$63, SI
	MOVQ	R13, (SP)(SI*8)
	LEAQ	(R12)(BX*8), R11
	MOVQ	R11, 1024(SP)(SI*8)
	MOVQ	(R8)(BX*8), BX
	IMULQ	DI, BX
	ADDQ	R9, BX
	MOVQ	BX, 512(SP)(SI*8)
	ADDQ	CX, DX
	ADDQ	$40, R15
	JMP	gterm
gslow:
	MOVQ	DX, AX
	ANDQ	$63, AX
	MOVQ	R13, (SP)(AX*8)
	LEAQ	(R12)(SI*8), BX
	MOVQ	BX, 1024(SP)(AX*8)
	MOVQ	(R8)(SI*8), BX
	IMULQ	DI, BX
	ADDQ	R9, BX
	MOVQ	BX, 512(SP)(AX*8)
	INCQ	SI
	INCQ	DX
	DECQ	CX
	MOVQ	DX, AX
	SUBQ	1544(SP), AX
	CMPQ	AX, $4
	JGE	gslowflush
gslowresume:
	TESTQ	CX, CX
	JNZ	gslow
	ADDQ	$40, R15
	JMP	gterm
gslowflush:
	MOVQ	SI, 1584(SP)
	MOVQ	CX, 1592(SP)
	MOVQ	$1, 1552(SP)
	JMP	qloop
growend:
	MOVQ	$0, 1552(SP)
	JMP	qloop
gnextrow:
	ADDQ	DI, R13
	INCQ	R10
	JMP	grow
gend:
	MOVQ	DX, CX
	SUBQ	1544(SP), CX
	JZ	gdone
	MOVQ	1544(SP), AX
	ANDQ	$63, AX
	MOVQ	(SP)(AX*8), BX
	LEAQ	1536(SP), SI
gpad:
	MOVQ	DX, AX
	ANDQ	$63, AX
	MOVQ	BX, (SP)(AX*8)
	MOVQ	BX, 512(SP)(AX*8)
	MOVQ	SI, 1024(SP)(AX*8)
	INCQ	DX
	INCQ	CX
	CMPQ	CX, $4
	JLT	gpad
	MOVQ	$2, 1552(SP)
qloop:
	MOVQ	R10, 1560(SP)
	MOVQ	R13, 1568(SP)
	MOVQ	R15, 1576(SP)
quad:
	MOVQ	DX, AX
	SUBQ	1544(SP), AX
	CMPQ	AX, $4
	JLT	qdone
	MOVQ	1544(SP), AX
	ANDQ	$63, AX
	MOVQ	(SP)(AX*8), R8
	MOVQ	8(SP)(AX*8), R9
	MOVQ	16(SP)(AX*8), R10
	MOVQ	24(SP)(AX*8), R11
	MOVQ	512(SP)(AX*8), R12
	MOVQ	520(SP)(AX*8), R13
	MOVQ	528(SP)(AX*8), R14
	MOVQ	536(SP)(AX*8), R15
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	XORQ	BX, BX
	MOVQ	DI, AX
	ANDQ	$-64, AX
	JZ	q4
q8:
	VMOVUPD	(R8)(BX*1), Z4
	VMULPD	(R12)(BX*1), Z4, Z4
	VMOVUPD	(R9)(BX*1), Z5
	VMULPD	(R13)(BX*1), Z5, Z5
	VMOVUPD	(R10)(BX*1), Z6
	VMULPD	(R14)(BX*1), Z6, Z6
	VMOVUPD	(R11)(BX*1), Z7
	VMULPD	(R15)(BX*1), Z7, Z7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	VEXTRACTF64X4	$1, Z4, Y4
	VEXTRACTF64X4	$1, Z5, Y5
	VEXTRACTF64X4	$1, Z6, Y6
	VEXTRACTF64X4	$1, Z7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, BX
	CMPQ	BX, AX
	JNE	q8
q4:
	MOVQ	DI, CX
	ANDQ	$-32, CX
	CMPQ	BX, CX
	JEQ	qtail
	VMOVUPD	(R8)(BX*1), Y4
	VMULPD	(R12)(BX*1), Y4, Y4
	VMOVUPD	(R9)(BX*1), Y5
	VMULPD	(R13)(BX*1), Y5, Y5
	VMOVUPD	(R10)(BX*1), Y6
	VMULPD	(R14)(BX*1), Y6, Y6
	VMOVUPD	(R11)(BX*1), Y7
	VMULPD	(R15)(BX*1), Y7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$32, BX
qtail:
	VEXTRACTF128	$1, Y0, X4
	VEXTRACTF128	$1, Y1, X5
	VEXTRACTF128	$1, Y2, X6
	VEXTRACTF128	$1, Y3, X7
	CMPQ	BX, DI
	JEQ	qcombine
qtailloop:
	VMOVSD	(R8)(BX*1), X8
	VMULSD	(R12)(BX*1), X8, X8
	VADDSD	X8, X0, X0
	VMOVSD	(R9)(BX*1), X8
	VMULSD	(R13)(BX*1), X8, X8
	VADDSD	X8, X1, X1
	VMOVSD	(R10)(BX*1), X8
	VMULSD	(R14)(BX*1), X8, X8
	VADDSD	X8, X2, X2
	VMOVSD	(R11)(BX*1), X8
	VMULSD	(R15)(BX*1), X8, X8
	VADDSD	X8, X3, X3
	ADDQ	$8, BX
	CMPQ	BX, DI
	JNE	qtailloop
qcombine:
	VHADDPD	X4, X0, X0
	VHADDPD	X0, X0, X0
	VHADDPD	X5, X1, X1
	VHADDPD	X1, X1, X1
	VHADDPD	X6, X2, X2
	VHADDPD	X2, X2, X2
	VHADDPD	X7, X3, X3
	VHADDPD	X3, X3, X3
	MOVQ	1544(SP), AX
	ANDQ	$63, AX
	MOVQ	1024(SP)(AX*8), SI
	VADDSD	(SI), X0, X0
	VMOVSD	X0, (SI)
	MOVQ	1032(SP)(AX*8), SI
	VADDSD	(SI), X1, X1
	VMOVSD	X1, (SI)
	MOVQ	1040(SP)(AX*8), SI
	VADDSD	(SI), X2, X2
	VMOVSD	X2, (SI)
	MOVQ	1048(SP)(AX*8), SI
	VADDSD	(SI), X3, X3
	VMOVSD	X3, (SI)
	ADDQ	$4, 1544(SP)
	JMP	quad
qdone:
	MOVQ	1560(SP), R10
	MOVQ	1568(SP), R13
	MOVQ	1576(SP), R15
	MOVQ	terms+0(FP), R14
	MOVQ	n+8(FP), AX
	LEAQ	(AX)(AX*4), AX
	LEAQ	(R14)(AX*8), R14
	MOVQ	1552(SP), AX
	TESTQ	AX, AX
	JZ	gnextrow
	CMPQ	AX, $1
	JNE	gdone
	MOVQ	1584(SP), SI
	MOVQ	1592(SP), CX
	MOVQ	8(R15), R8
	MOVQ	16(R15), R9
	MOVQ	24(R15), R12
	JMP	gslowresume
gdone:
	VZEROUPPER
	RET

// func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool)
//
// CSR x dense over rows [rLo, rHi) of the CSR operand (rowPtr, col, val): for
// each row i and output column j, s = +0, then s += val[q] * b[col[q]][j]
// (multiply, then add — not fused) over the row's stored positions in order,
// and acc[i][j] += s once — with store set, s + 0 stored and acc's values
// not used: acc is ANDed with Y15, all ones or all zeros. Columns go sixteen
// at a time (Y0..Y3 hold the strip's sums), then four (Y0), then one (lane
// 0): per element the arithmetic of spmmRows's portable loops.
//
// Registers: R8 rowPtr, R9 col, R10 val, R11 i, R12 rHi, R13 b, R14 &acc[i][0],
// DI row bytes, SI/CX row i's first and end position, AX position, BX strip
// byte offset, DX &b[col[q]][0] (and scratch), Y9 acc's values.
TEXT ·spmmRowsAVX(SB), NOSPLIT, $0-65
	MOVQ	rowPtr+0(FP), R8
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	rLo+24(FP), R11
	MOVQ	rHi+32(FP), R12
	MOVQ	b+40(FP), R13
	MOVQ	acc+48(FP), R14
	MOVQ	n+56(FP), DI
	MOVBQZX	store+64(FP), AX
	DECQ	AX
	MOVQ	AX, X15
	VPBROADCASTQ	X15, Y15
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
	VANDPD	(R14)(BX*1), Y15, Y9
	VADDPD	Y9, Y0, Y0
	VMOVUPD	Y0, (R14)(BX*1)
	VANDPD	32(R14)(BX*1), Y15, Y9
	VADDPD	Y9, Y1, Y1
	VMOVUPD	Y1, 32(R14)(BX*1)
	VANDPD	64(R14)(BX*1), Y15, Y9
	VADDPD	Y9, Y2, Y2
	VMOVUPD	Y2, 64(R14)(BX*1)
	VANDPD	96(R14)(BX*1), Y15, Y9
	VADDPD	Y9, Y3, Y3
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
	VANDPD	(R14)(BX*1), Y15, Y9
	VADDPD	Y9, Y0, Y0
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
	VMOVSD	(R14)(BX*1), X9
	VANDPD	X15, X9, X9
	VADDSD	X9, X0, X0
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

// func spmmTAVX(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int)
//
// The dense x CSR product over the m columns at a and accT, whose rows are ld
// elements apart, for the CSR operand's K rows (rowPtr, col, val): for each
// row k that has stored positions and each column c < m, accT[col[q]][c] +=
// val[q] * a[k][c] (multiply, then add — not fused), q in stored order. The
// row of a stays in registers while the positions stream past: sixteen
// columns at a time (Y0..Y3), then four (Y0), then one (lane 0).
//
// Registers: R8 rowPtr, R9 col, R10 val, R11 k, R12 K, SI &a[k][0], R14
// accT, R15 row bytes, DI m in bytes, R13/CX row k's first and end position,
// AX position, BX strip byte offset, DX &accT[col[q]][0].
TEXT ·spmmTAVX(SB), NOSPLIT, $0-64
	MOVQ	rowPtr+0(FP), R8
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	K+24(FP), R12
	MOVQ	a+32(FP), SI
	MOVQ	accT+40(FP), R14
	MOVQ	ld+48(FP), R15
	SHLQ	$3, R15
	MOVQ	m+56(FP), DI
	SHLQ	$3, DI
	XORQ	R11, R11
trow:
	CMPQ	R11, R12
	JGE	tdone
	MOVQ	(R8)(R11*8), R13
	MOVQ	8(R8)(R11*8), CX
	CMPQ	R13, CX
	JGE	tnext
	XORQ	BX, BX
t16:
	LEAQ	128(BX), DX
	CMPQ	DX, DI
	JGT	t4
	VMOVUPD	(SI)(BX*1), Y0
	VMOVUPD	32(SI)(BX*1), Y1
	VMOVUPD	64(SI)(BX*1), Y2
	VMOVUPD	96(SI)(BX*1), Y3
	MOVQ	R13, AX
t16nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
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
	MOVQ	R13, AX
t4nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
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
	JGE	tnext
	VMOVSD	(SI)(BX*1), X0
	MOVQ	R13, AX
t1nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
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
tnext:
	ADDQ	R15, SI
	INCQ	R11
	JMP	trow
tdone:
	VZEROUPPER
	RET

// func spmmRowsAVX512(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool)
//
// spmmRowsAVX at ZMM width: a row's stored positions are walked once per 64
// output columns, whose sums stay in Z0..Z7; what is left of the row takes
// one strip each of 32, 16 and 8 columns, then the last n%8 columns under
// the opmask K1 — the masked loads read nothing past the row and the masked
// store writes nothing past it. Per element the arithmetic of spmmRows:
// s = +0, then s += val[q] * b[col[q]][j] (multiply, then add — not fused)
// in stored order, and acc[i][j] += s once — with store set, s + 0 stored:
// the add of acc runs under the opmask K2, all lanes or none, and a lane it
// skips reads nothing.
//
// Registers: as spmmRowsAVX; K1 the tail's lanes, K3 those of them that read
// acc, Z16 the broadcast value, Z17..Z24 the products.
TEXT ·spmmRowsAVX512(SB), NOSPLIT, $0-65
	MOVQ	rowPtr+0(FP), R8
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	rLo+24(FP), R11
	MOVQ	rHi+32(FP), R12
	MOVQ	b+40(FP), R13
	MOVQ	acc+48(FP), R14
	MOVQ	n+56(FP), DI
	MOVQ	DI, CX
	ANDQ	$7, CX
	MOVL	$1, AX
	SHLL	CX, AX
	DECL	AX
	KMOVW	AX, K1
	MOVBQZX	store+64(FP), AX
	DECQ	AX
	KMOVW	AX, K2
	KANDW	K1, K2, K3
	SHLQ	$3, DI
	MOVQ	R11, AX
	IMULQ	DI, AX
	ADDQ	AX, R14
zrow:
	CMPQ	R11, R12
	JGE	zdone
	MOVQ	(R8)(R11*8), SI
	MOVQ	8(R8)(R11*8), CX
	XORQ	BX, BX
z64:
	LEAQ	512(BX), DX
	CMPQ	DX, DI
	JGT	z32
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z4, Z4, Z4
	VPXORQ	Z5, Z5, Z5
	VPXORQ	Z6, Z6, Z6
	VPXORQ	Z7, Z7, Z7
	MOVQ	SI, AX
	JMP	z64check
z64nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	(DX)(BX*1), Z16, Z17
	VADDPD	Z17, Z0, Z0
	VMULPD	64(DX)(BX*1), Z16, Z18
	VADDPD	Z18, Z1, Z1
	VMULPD	128(DX)(BX*1), Z16, Z19
	VADDPD	Z19, Z2, Z2
	VMULPD	192(DX)(BX*1), Z16, Z20
	VADDPD	Z20, Z3, Z3
	VMULPD	256(DX)(BX*1), Z16, Z21
	VADDPD	Z21, Z4, Z4
	VMULPD	320(DX)(BX*1), Z16, Z22
	VADDPD	Z22, Z5, Z5
	VMULPD	384(DX)(BX*1), Z16, Z23
	VADDPD	Z23, Z6, Z6
	VMULPD	448(DX)(BX*1), Z16, Z24
	VADDPD	Z24, Z7, Z7
	INCQ	AX
z64check:
	CMPQ	AX, CX
	JLT	z64nz
	VADDPD	(R14)(BX*1), Z0, K2, Z0
	VMOVUPD	Z0, (R14)(BX*1)
	VADDPD	64(R14)(BX*1), Z1, K2, Z1
	VMOVUPD	Z1, 64(R14)(BX*1)
	VADDPD	128(R14)(BX*1), Z2, K2, Z2
	VMOVUPD	Z2, 128(R14)(BX*1)
	VADDPD	192(R14)(BX*1), Z3, K2, Z3
	VMOVUPD	Z3, 192(R14)(BX*1)
	VADDPD	256(R14)(BX*1), Z4, K2, Z4
	VMOVUPD	Z4, 256(R14)(BX*1)
	VADDPD	320(R14)(BX*1), Z5, K2, Z5
	VMOVUPD	Z5, 320(R14)(BX*1)
	VADDPD	384(R14)(BX*1), Z6, K2, Z6
	VMOVUPD	Z6, 384(R14)(BX*1)
	VADDPD	448(R14)(BX*1), Z7, K2, Z7
	VMOVUPD	Z7, 448(R14)(BX*1)
	ADDQ	$512, BX
	JMP	z64
z32:
	LEAQ	256(BX), DX
	CMPQ	DX, DI
	JGT	z16
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	MOVQ	SI, AX
	JMP	z32check
z32nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	(DX)(BX*1), Z16, Z17
	VADDPD	Z17, Z0, Z0
	VMULPD	64(DX)(BX*1), Z16, Z18
	VADDPD	Z18, Z1, Z1
	VMULPD	128(DX)(BX*1), Z16, Z19
	VADDPD	Z19, Z2, Z2
	VMULPD	192(DX)(BX*1), Z16, Z20
	VADDPD	Z20, Z3, Z3
	INCQ	AX
z32check:
	CMPQ	AX, CX
	JLT	z32nz
	VADDPD	(R14)(BX*1), Z0, K2, Z0
	VMOVUPD	Z0, (R14)(BX*1)
	VADDPD	64(R14)(BX*1), Z1, K2, Z1
	VMOVUPD	Z1, 64(R14)(BX*1)
	VADDPD	128(R14)(BX*1), Z2, K2, Z2
	VMOVUPD	Z2, 128(R14)(BX*1)
	VADDPD	192(R14)(BX*1), Z3, K2, Z3
	VMOVUPD	Z3, 192(R14)(BX*1)
	ADDQ	$256, BX
z16:
	LEAQ	128(BX), DX
	CMPQ	DX, DI
	JGT	z8
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	MOVQ	SI, AX
	JMP	z16check
z16nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	(DX)(BX*1), Z16, Z17
	VADDPD	Z17, Z0, Z0
	VMULPD	64(DX)(BX*1), Z16, Z18
	VADDPD	Z18, Z1, Z1
	INCQ	AX
z16check:
	CMPQ	AX, CX
	JLT	z16nz
	VADDPD	(R14)(BX*1), Z0, K2, Z0
	VMOVUPD	Z0, (R14)(BX*1)
	VADDPD	64(R14)(BX*1), Z1, K2, Z1
	VMOVUPD	Z1, 64(R14)(BX*1)
	ADDQ	$128, BX
z8:
	LEAQ	64(BX), DX
	CMPQ	DX, DI
	JGT	ztail
	VPXORQ	Z0, Z0, Z0
	MOVQ	SI, AX
	JMP	z8check
z8nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	(DX)(BX*1), Z16, Z17
	VADDPD	Z17, Z0, Z0
	INCQ	AX
z8check:
	CMPQ	AX, CX
	JLT	z8nz
	VADDPD	(R14)(BX*1), Z0, K2, Z0
	VMOVUPD	Z0, (R14)(BX*1)
	ADDQ	$64, BX
ztail:
	CMPQ	BX, DI
	JGE	znext
	VPXORQ	Z0, Z0, Z0
	MOVQ	SI, AX
	JMP	ztailcheck
ztailnz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	DI, DX
	ADDQ	R13, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMOVUPD.Z	(DX)(BX*1), K1, Z17
	VMULPD	Z17, Z16, Z17
	VADDPD	Z17, Z0, Z0
	INCQ	AX
ztailcheck:
	CMPQ	AX, CX
	JLT	ztailnz
	VMOVUPD.Z	(R14)(BX*1), K3, Z17
	VADDPD	Z17, Z0, Z0
	VMOVUPD	Z0, K1, (R14)(BX*1)
znext:
	ADDQ	DI, R14
	INCQ	R11
	JMP	zrow
zdone:
	VZEROUPPER
	RET

// func spmmTAVX512(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int)
//
// spmmTAVX at ZMM width: for each row k of the CSR operand that has stored
// positions, a's 64-column segments stay in Z0..Z7 while accT[col[q]] +=
// val[q] * a[k] (multiply, then add — not fused) is scattered to them, q in
// stored order; then one strip each of 32, 16 and 8 columns, and the last
// m%8 under the opmask K1, whose loads and store touch nothing past the row.
//
// Registers: as spmmTAVX; K1 the tail's lanes, Z16 the broadcast value,
// Z17..Z24 the sums.
TEXT ·spmmTAVX512(SB), NOSPLIT, $0-64
	MOVQ	rowPtr+0(FP), R8
	MOVQ	col+8(FP), R9
	MOVQ	val+16(FP), R10
	MOVQ	K+24(FP), R12
	MOVQ	a+32(FP), SI
	MOVQ	accT+40(FP), R14
	MOVQ	ld+48(FP), R15
	SHLQ	$3, R15
	MOVQ	m+56(FP), DI
	MOVQ	DI, CX
	ANDQ	$7, CX
	MOVL	$1, AX
	SHLL	CX, AX
	DECL	AX
	KMOVW	AX, K1
	SHLQ	$3, DI
	XORQ	R11, R11
urow:
	CMPQ	R11, R12
	JGE	udone
	MOVQ	(R8)(R11*8), R13
	MOVQ	8(R8)(R11*8), CX
	CMPQ	R13, CX
	JGE	unext
	XORQ	BX, BX
u64:
	LEAQ	512(BX), DX
	CMPQ	DX, DI
	JGT	u32
	VMOVUPD	(SI)(BX*1), Z0
	VMOVUPD	64(SI)(BX*1), Z1
	VMOVUPD	128(SI)(BX*1), Z2
	VMOVUPD	192(SI)(BX*1), Z3
	VMOVUPD	256(SI)(BX*1), Z4
	VMOVUPD	320(SI)(BX*1), Z5
	VMOVUPD	384(SI)(BX*1), Z6
	VMOVUPD	448(SI)(BX*1), Z7
	MOVQ	R13, AX
u64nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	Z0, Z16, Z17
	VADDPD	(DX)(BX*1), Z17, Z17
	VMOVUPD	Z17, (DX)(BX*1)
	VMULPD	Z1, Z16, Z18
	VADDPD	64(DX)(BX*1), Z18, Z18
	VMOVUPD	Z18, 64(DX)(BX*1)
	VMULPD	Z2, Z16, Z19
	VADDPD	128(DX)(BX*1), Z19, Z19
	VMOVUPD	Z19, 128(DX)(BX*1)
	VMULPD	Z3, Z16, Z20
	VADDPD	192(DX)(BX*1), Z20, Z20
	VMOVUPD	Z20, 192(DX)(BX*1)
	VMULPD	Z4, Z16, Z21
	VADDPD	256(DX)(BX*1), Z21, Z21
	VMOVUPD	Z21, 256(DX)(BX*1)
	VMULPD	Z5, Z16, Z22
	VADDPD	320(DX)(BX*1), Z22, Z22
	VMOVUPD	Z22, 320(DX)(BX*1)
	VMULPD	Z6, Z16, Z23
	VADDPD	384(DX)(BX*1), Z23, Z23
	VMOVUPD	Z23, 384(DX)(BX*1)
	VMULPD	Z7, Z16, Z24
	VADDPD	448(DX)(BX*1), Z24, Z24
	VMOVUPD	Z24, 448(DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	u64nz
	ADDQ	$512, BX
	JMP	u64
u32:
	LEAQ	256(BX), DX
	CMPQ	DX, DI
	JGT	u16
	VMOVUPD	(SI)(BX*1), Z0
	VMOVUPD	64(SI)(BX*1), Z1
	VMOVUPD	128(SI)(BX*1), Z2
	VMOVUPD	192(SI)(BX*1), Z3
	MOVQ	R13, AX
u32nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	Z0, Z16, Z17
	VADDPD	(DX)(BX*1), Z17, Z17
	VMOVUPD	Z17, (DX)(BX*1)
	VMULPD	Z1, Z16, Z18
	VADDPD	64(DX)(BX*1), Z18, Z18
	VMOVUPD	Z18, 64(DX)(BX*1)
	VMULPD	Z2, Z16, Z19
	VADDPD	128(DX)(BX*1), Z19, Z19
	VMOVUPD	Z19, 128(DX)(BX*1)
	VMULPD	Z3, Z16, Z20
	VADDPD	192(DX)(BX*1), Z20, Z20
	VMOVUPD	Z20, 192(DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	u32nz
	ADDQ	$256, BX
u16:
	LEAQ	128(BX), DX
	CMPQ	DX, DI
	JGT	u8
	VMOVUPD	(SI)(BX*1), Z0
	VMOVUPD	64(SI)(BX*1), Z1
	MOVQ	R13, AX
u16nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	Z0, Z16, Z17
	VADDPD	(DX)(BX*1), Z17, Z17
	VMOVUPD	Z17, (DX)(BX*1)
	VMULPD	Z1, Z16, Z18
	VADDPD	64(DX)(BX*1), Z18, Z18
	VMOVUPD	Z18, 64(DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	u16nz
	ADDQ	$128, BX
u8:
	LEAQ	64(BX), DX
	CMPQ	DX, DI
	JGT	utail
	VMOVUPD	(SI)(BX*1), Z0
	MOVQ	R13, AX
u8nz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	Z0, Z16, Z17
	VADDPD	(DX)(BX*1), Z17, Z17
	VMOVUPD	Z17, (DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	u8nz
	ADDQ	$64, BX
utail:
	CMPQ	BX, DI
	JGE	unext
	VMOVUPD.Z	(SI)(BX*1), K1, Z0
	MOVQ	R13, AX
utailnz:
	MOVQ	(R9)(AX*8), DX
	IMULQ	R15, DX
	ADDQ	R14, DX
	VBROADCASTSD	(R10)(AX*8), Z16
	VMULPD	Z0, Z16, Z17
	VMOVUPD.Z	(DX)(BX*1), K1, Z18
	VADDPD	Z18, Z17, Z17
	VMOVUPD	Z17, K1, (DX)(BX*1)
	INCQ	AX
	CMPQ	AX, CX
	JLT	utailnz
unext:
	ADDQ	R15, SI
	INCQ	R11
	JMP	urow
udone:
	VZEROUPPER
	RET

// func transposeAVX512(src *float64, lds int, dst *float64, ldd int, rows, cols int)
//
// Writes the transpose of the rows x cols block at src (rows lds elements
// apart) to dst (rows ldd elements apart), rows and cols positive multiples
// of 8, one 8x8 tile at a time in registers: eight row loads, VUNPCKLPD /
// VUNPCKHPD pair the rows' even and odd elements, two rounds of VSHUFF64X2
// gather the 128-bit pairs into columns, eight row stores. A pure copy: no
// value passes an arithmetic unit, so NaN payloads and -0 come out as they
// went in. The tiles of one band of 8 output rows are written one after
// another, so the stores run along those rows.
//
// Registers: SI &src[0][j0], DI dst, R8/R9 src/dst row bytes, R12/R13 three
// times them, R10 rows in bytes, R11 cols, CX j0, DX &dst[j0][0], AX
// &src[i0][j0], BX i0 in bytes, R14/R15 the fifth source and destination row.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-48
	MOVQ	src+0(FP), SI
	MOVQ	lds+8(FP), R8
	SHLQ	$3, R8
	MOVQ	dst+16(FP), DI
	MOVQ	ldd+24(FP), R9
	SHLQ	$3, R9
	MOVQ	rows+32(FP), R10
	SHLQ	$3, R10
	MOVQ	cols+40(FP), R11
	LEAQ	(R8)(R8*2), R12
	LEAQ	(R9)(R9*2), R13
	XORQ	CX, CX
	MOVQ	DI, DX
trband:
	MOVQ	SI, AX
	XORQ	BX, BX
trtile:
	LEAQ	(AX)(R8*4), R14
	VMOVUPD	(AX), Z0
	VMOVUPD	(AX)(R8*1), Z1
	VMOVUPD	(AX)(R8*2), Z2
	VMOVUPD	(AX)(R12*1), Z3
	VMOVUPD	(R14), Z4
	VMOVUPD	(R14)(R8*1), Z5
	VMOVUPD	(R14)(R8*2), Z6
	VMOVUPD	(R14)(R12*1), Z7
	VUNPCKLPD	Z1, Z0, Z8
	VUNPCKHPD	Z1, Z0, Z9
	VUNPCKLPD	Z3, Z2, Z10
	VUNPCKHPD	Z3, Z2, Z11
	VUNPCKLPD	Z5, Z4, Z12
	VUNPCKHPD	Z5, Z4, Z13
	VUNPCKLPD	Z7, Z6, Z14
	VUNPCKHPD	Z7, Z6, Z15
	VSHUFF64X2	$0x88, Z10, Z8, Z0
	VSHUFF64X2	$0xDD, Z10, Z8, Z2
	VSHUFF64X2	$0x88, Z11, Z9, Z1
	VSHUFF64X2	$0xDD, Z11, Z9, Z3
	VSHUFF64X2	$0x88, Z14, Z12, Z4
	VSHUFF64X2	$0xDD, Z14, Z12, Z6
	VSHUFF64X2	$0x88, Z15, Z13, Z5
	VSHUFF64X2	$0xDD, Z15, Z13, Z7
	VSHUFF64X2	$0x88, Z4, Z0, Z16
	VSHUFF64X2	$0x88, Z5, Z1, Z17
	VSHUFF64X2	$0x88, Z6, Z2, Z18
	VSHUFF64X2	$0x88, Z7, Z3, Z19
	VSHUFF64X2	$0xDD, Z4, Z0, Z20
	VSHUFF64X2	$0xDD, Z5, Z1, Z21
	VSHUFF64X2	$0xDD, Z6, Z2, Z22
	VSHUFF64X2	$0xDD, Z7, Z3, Z23
	LEAQ	(DX)(BX*1), R15
	VMOVUPD	Z16, (R15)
	VMOVUPD	Z17, (R15)(R9*1)
	VMOVUPD	Z18, (R15)(R9*2)
	VMOVUPD	Z19, (R15)(R13*1)
	LEAQ	(R15)(R9*4), R15
	VMOVUPD	Z20, (R15)
	VMOVUPD	Z21, (R15)(R9*1)
	VMOVUPD	Z22, (R15)(R9*2)
	VMOVUPD	Z23, (R15)(R13*1)
	LEAQ	(AX)(R8*8), AX
	ADDQ	$64, BX
	CMPQ	BX, R10
	JLT	trtile
	ADDQ	$64, SI
	LEAQ	(DX)(R9*8), DX
	ADDQ	$8, CX
	CMPQ	CX, R11
	JLT	trband
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
