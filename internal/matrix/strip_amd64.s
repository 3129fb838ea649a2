#include "textflag.h"

// The element-wise strips at ZMM width. One entry, stripAVX512, runs one of
// twelve loops, chosen by form (the operand kinds stripVV, stripVS or
// stripSV ORed with the operator): dst[j] = x[j] op y[j], x[j] op s or
// s op x[j] for op one of + - * /, dst[j] = x[j] (a copy) or dst[j] = s (a
// fill). Each result is kept where its bits AND keep are non-zero and stored
// as +0 elsewhere, so keep = the exponent field flushes zeros and subnormals
// to +0 (flush in ops.go) and keep = all ones keeps every value (only a +0
// is rewritten, as +0). Eight values per step, in the operand order of the
// portable loops: the first source of each instruction is the operator's
// left operand. The last step loads and stores under the opmask K1, so
// nothing past the strips is read or written; its lanes past n compute on
// zeros and are dropped. Each loop starts at a 16-byte boundary.

// STRIPSTORE keeps the lanes of Z0 that keep (Z31) allows, zeroes the rest,
// and stores the step's lanes to dst.
#define STRIPSTORE \
	VPTESTMQ	Z31, Z0, K2; \
	VMOVAPD.Z	Z0, K2, Z0; \
	VMOVUPD	Z0, K1, (DI)(AX*1)

// STRIPTAIL makes K1 the lanes of the CX < 8 values left.
#define STRIPTAIL \
	MOVL	$1, BX; \
	SHLL	CX, BX; \
	DECL	BX; \
	KMOVW	BX, K1

// func stripAVX512(form int, dst, x, y *float64, n int, s float64, keep uint64)
//
// n must be positive; x (but for a fill) and y (for two strips) must hold n
// values, and dst may be x or y.
//
// Registers: R8 form, DI dst, SI x, DX y, CX values left, AX byte offset, Z30
// s, Z31 keep, K1 the step's lanes, K2 the lanes kept.
TEXT ·stripAVX512(SB), NOSPLIT, $0-56
	MOVQ	form+0(FP), R8
	MOVQ	dst+8(FP), DI
	MOVQ	x+16(FP), SI
	MOVQ	y+24(FP), DX
	MOVQ	n+32(FP), CX
	VBROADCASTSD	s+40(FP), Z30
	VPBROADCASTQ	keep+48(FP), Z31
	XORQ	AX, AX
	MOVL	$0xff, BX
	KMOVW	BX, K1
	CMPQ	CX, $8
	JGE	stripgo
	STRIPTAIL
stripgo:
	CMPQ	R8, $0
	JEQ	vvadd
	CMPQ	R8, $1
	JEQ	vvsub
	CMPQ	R8, $2
	JEQ	vvmul
	CMPQ	R8, $3
	JEQ	vvdiv
	CMPQ	R8, $4
	JEQ	vvfirst
	CMPQ	R8, $8
	JEQ	vsadd
	CMPQ	R8, $9
	JEQ	vssub
	CMPQ	R8, $10
	JEQ	vsmul
	CMPQ	R8, $11
	JEQ	vsdiv
	CMPQ	R8, $17
	JEQ	svsub
	CMPQ	R8, $19
	JEQ	svdiv
	CMPQ	R8, $20
	JEQ	svfirst
	JMP	stripdone
	PCALIGN	$16
vvadd:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VMOVUPD.Z	(DX)(AX*1), K1, Z1
	VADDPD	Z1, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vvadd
	STRIPTAIL
	JMP	vvadd
	PCALIGN	$16
vvsub:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VMOVUPD.Z	(DX)(AX*1), K1, Z1
	VSUBPD	Z1, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vvsub
	STRIPTAIL
	JMP	vvsub
	PCALIGN	$16
vvmul:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VMOVUPD.Z	(DX)(AX*1), K1, Z1
	VMULPD	Z1, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vvmul
	STRIPTAIL
	JMP	vvmul
	PCALIGN	$16
vvdiv:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VMOVUPD.Z	(DX)(AX*1), K1, Z1
	VDIVPD	Z1, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vvdiv
	STRIPTAIL
	JMP	vvdiv
	PCALIGN	$16
vvfirst:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vvfirst
	STRIPTAIL
	JMP	vvfirst
	PCALIGN	$16
vsadd:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VADDPD	Z30, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vsadd
	STRIPTAIL
	JMP	vsadd
	PCALIGN	$16
vssub:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VSUBPD	Z30, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vssub
	STRIPTAIL
	JMP	vssub
	PCALIGN	$16
vsmul:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VMULPD	Z30, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vsmul
	STRIPTAIL
	JMP	vsmul
	PCALIGN	$16
vsdiv:
	VMOVUPD.Z	(SI)(AX*1), K1, Z0
	VDIVPD	Z30, Z0, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	vsdiv
	STRIPTAIL
	JMP	vsdiv
	PCALIGN	$16
svsub:
	VMOVUPD.Z	(SI)(AX*1), K1, Z1
	VSUBPD	Z1, Z30, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	svsub
	STRIPTAIL
	JMP	svsub
	PCALIGN	$16
svdiv:
	VMOVUPD.Z	(SI)(AX*1), K1, Z1
	VDIVPD	Z1, Z30, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	svdiv
	STRIPTAIL
	JMP	svdiv
	PCALIGN	$16
svfirst:
	VMOVAPD	Z30, Z0
	STRIPSTORE
	ADDQ	$64, AX
	SUBQ	$8, CX
	JLE	stripdone
	CMPQ	CX, $8
	JGE	svfirst
	STRIPTAIL
	JMP	svfirst
stripdone:
	VZEROUPPER
	RET
