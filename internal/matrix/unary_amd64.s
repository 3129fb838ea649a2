#include "textflag.h"

// Strip kernels of the transcendental unary functions: four values per step,
// each lane the arithmetic of math.Log and math.Exp on amd64 with FMA3
// (math/log.go as compiled, math/exp_amd64.s), so their bits. Each kernel
// stops before the first group of four that holds a value outside its fast
// range and returns the number of values done; its caller (withKernel in
// unary.go) finishes that group through math, one value at a time, and calls
// again.

// Q4 lays a 64-bit pattern out four times, as one 32-byte operand.
#define Q4(off, v) \
	DATA unaryc<>+(off+0)(SB)/8, v; \
	DATA unaryc<>+(off+8)(SB)/8, v; \
	DATA unaryc<>+(off+16)(SB)/8, v; \
	DATA unaryc<>+(off+24)(SB)/8, v

#define HALF     unaryc<>+0(SB)
#define ONE      unaryc<>+32(SB)
#define TWO      unaryc<>+64(SB)
#define MAGIC    unaryc<>+96(SB)
// log
#define LOGLO    unaryc<>+128(SB)
#define LOGSPAN  unaryc<>+160(SB)
#define MANT     unaryc<>+192(SB)
#define HSQRT2   unaryc<>+224(SB)
#define KBIAS    unaryc<>+256(SB)
#define LN2HI    unaryc<>+288(SB)
#define LN2LO    unaryc<>+320(SB)
#define L1       unaryc<>+352(SB)
#define L2       unaryc<>+384(SB)
#define L3       unaryc<>+416(SB)
#define L4       unaryc<>+448(SB)
#define L5       unaryc<>+480(SB)
#define L6       unaryc<>+512(SB)
#define L7       unaryc<>+544(SB)
// exp
#define ABS      unaryc<>+576(SB)
#define EXPMAX   unaryc<>+608(SB)
#define LOG2E    unaryc<>+640(SB)
#define LN2U     unaryc<>+672(SB)
#define LN2L     unaryc<>+704(SB)
#define SIXTEENTH unaryc<>+736(SB)
#define EXPBIAS  unaryc<>+768(SB)
#define C3       unaryc<>+800(SB)
#define C4       unaryc<>+832(SB)
#define C5       unaryc<>+864(SB)
#define C6       unaryc<>+896(SB)
#define C7       unaryc<>+928(SB)
#define C8       unaryc<>+960(SB)
#define SIGN     unaryc<>+992(SB)

Q4(0, $0.5)                  // also the exponent field of [0.5, 1)
Q4(32, $1.0)
Q4(64, $2.0)
Q4(96, $0x4338000000000000)  // 1.5 * 2^52: adding it rounds to an integer, kept in the low bits
// x is a positive normal number iff (bits(x) + LOGLO), as a signed integer,
// is at most LOGSPAN: bits - minNormal < Inf - minNormal, unsigned, with the
// sign bit flipped on both sides for the signed compare.
Q4(128, $0x7FF0000000000000) // 2^63 - bits(minNormal)
Q4(160, $0xFFDFFFFFFFFFFFFF) // 2^63 ^ (bits(Inf) - bits(minNormal) - 1)
Q4(192, $0x000FFFFFFFFFFFFF) // mantissa field
Q4(224, $7.07106781186547524401e-01) // sqrt(2)/2
Q4(256, $0x4337FFFFFFFFFC02) // bits(MAGIC) - 0x3FE: biased exponent -> MAGIC + k
Q4(288, $6.93147180369123816490e-01) // Ln2Hi
Q4(320, $1.90821492927058770002e-10) // Ln2Lo
Q4(352, $6.666666666666735130e-01)
Q4(384, $3.999999999940941908e-01)
Q4(416, $2.857142874366239149e-01)
Q4(448, $2.222219843214978396e-01)
Q4(480, $1.818357216161805012e-01)
Q4(512, $1.531383769920937332e-01)
Q4(544, $1.479819860511658591e-01)
Q4(576, $0x7FFFFFFFFFFFFFFF) // everything but the sign
Q4(608, $708.0)               // |x| at most this keeps 2^k normal
Q4(640, $1.4426950408889634073599246810018920) // log2(e)
Q4(672, $0.69314718055966295651160180568695068359375) // upper half of ln 2
Q4(704, $0.28235290563031577122588448175013436025525412068e-12) // lower half
Q4(736, $0.0625)
Q4(768, $0x00000000000003FF) // exponent bias
Q4(800, $1.6666666666666666667e-1) // 1/3!
Q4(832, $4.1666666666666666667e-2)
Q4(864, $8.3333333333333333333e-3)
Q4(896, $1.3888888888888888889e-3)
Q4(928, $1.9841269841269841270e-4)
Q4(960, $2.4801587301587301587e-5)
Q4(992, $0x8000000000000000) // the sign
GLOBL unaryc<>(SB), RODATA|NOPTR, $1024

// func logAVX(dst, src *float64, n int) int
//
// dst[j] = log(src[j]) for the leading groups of four whose values are all
// positive and normal; n is a multiple of 4. The fdlibm recurrence of
// math.Log on amd64: x = f1 * 2^k with f1 in (sqrt(2)/2, sqrt(2)], f = f1-1,
// s = f/(2+f), two Horner chains in s^4, no fused operation. The exponent
// field becomes k through the bits of MAGIC + k, and f1 is doubled by adding
// one to its exponent field.
TEXT ·logAVX(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
logloop:
	CMPQ	AX, CX
	JGE	logdone
	VMOVUPD	(SI)(AX*8), Y0
	VPADDQ	LOGLO, Y0, Y1
	VPCMPGTQ	LOGSPAN, Y1, Y1
	VPTEST	Y1, Y1
	JNZ	logdone
	VPAND	MANT, Y0, Y2
	VPOR	HALF, Y2, Y2          // f1 in [0.5, 1)
	VPSRLQ	$52, Y0, Y3
	VCMPPD	$2, HSQRT2, Y2, Y4    // f1 <= sqrt(2)/2: all ones, which is -1
	VPADDQ	Y4, Y3, Y3
	VPADDQ	KBIAS, Y3, Y3
	VSUBPD	MAGIC, Y3, Y3         // k
	VPSLLQ	$52, Y4, Y4
	VPSUBQ	Y4, Y2, Y2            // f1 *= 2 where it was small
	VSUBPD	ONE, Y2, Y2           // f
	VADDPD	TWO, Y2, Y5
	VDIVPD	Y5, Y2, Y5            // s = f / (2 + f)
	VMULPD	Y5, Y5, Y6            // s2
	VMULPD	Y6, Y6, Y7            // s4
	VMULPD	L7, Y7, Y8
	VADDPD	L5, Y8, Y8
	VMULPD	Y7, Y8, Y8
	VADDPD	L3, Y8, Y8
	VMULPD	Y7, Y8, Y8
	VADDPD	L1, Y8, Y8
	VMULPD	Y8, Y6, Y6            // t1 = s2 * (L1 + s4*(L3 + s4*(L5 + s4*L7)))
	VMULPD	L6, Y7, Y8
	VADDPD	L4, Y8, Y8
	VMULPD	Y7, Y8, Y8
	VADDPD	L2, Y8, Y8
	VMULPD	Y8, Y7, Y7            // t2 = s4 * (L2 + s4*(L4 + s4*L6))
	VADDPD	Y7, Y6, Y6            // R
	VMULPD	HALF, Y2, Y7
	VMULPD	Y2, Y7, Y7            // hfsq = 0.5*f*f
	VADDPD	Y7, Y6, Y6
	VMULPD	Y6, Y5, Y5            // s * (hfsq + R)
	VMULPD	LN2LO, Y3, Y6
	VADDPD	Y6, Y5, Y5
	VSUBPD	Y5, Y7, Y7            // hfsq - (s*(hfsq+R) + k*Ln2Lo)
	VSUBPD	Y2, Y7, Y7            // ... - f
	VMULPD	LN2HI, Y3, Y3
	VSUBPD	Y7, Y3, Y3            // k*Ln2Hi - ...
	VMOVUPD	Y3, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	logloop
logdone:
	VZEROUPPER
	MOVQ	AX, ret+24(FP)
	RET

// EXPSTEP leaves exp(Y0) in Y0 for |Y0| <= 708, through Y1-Y3: the
// recurrence of math.Exp on amd64 with FMA3 (Shibata's, from SLEEF).
// k = rint(x * log2(e)), taken by adding MAGIC; r = (x - k*ln2) / 16 in two
// fused steps; e^r - 1 as r times a degree-7 Horner chain of fused steps;
// four squarings (e^r - 1 -> e^2r - 1 is r*(r+2)), the last fused with the
// + 1; times 2^k, built in the exponent field.
#define EXPSTEP \
	VMULPD	LOG2E, Y0, Y1; \
	VADDPD	MAGIC, Y1, Y1; \
	VSUBPD	MAGIC, Y1, Y2; \
	VPADDQ	EXPBIAS, Y1, Y1; \
	VPSLLQ	$52, Y1, Y1; \
	VFNMADD231PD	LN2U, Y2, Y0; \
	VFNMADD231PD	LN2L, Y2, Y0; \
	VMULPD	SIXTEENTH, Y0, Y0; \
	VMOVUPD	C8, Y3; \
	VFMADD213PD	C7, Y0, Y3; \
	VFMADD213PD	C6, Y0, Y3; \
	VFMADD213PD	C5, Y0, Y3; \
	VFMADD213PD	C4, Y0, Y3; \
	VFMADD213PD	C3, Y0, Y3; \
	VFMADD213PD	HALF, Y0, Y3; \
	VFMADD213PD	ONE, Y0, Y3; \
	VMULPD	Y3, Y0, Y0; \
	VADDPD	TWO, Y0, Y3; \
	VMULPD	Y3, Y0, Y0; \
	VADDPD	TWO, Y0, Y3; \
	VMULPD	Y3, Y0, Y0; \
	VADDPD	TWO, Y0, Y3; \
	VMULPD	Y3, Y0, Y0; \
	VADDPD	TWO, Y0, Y3; \
	VFMADD213PD	ONE, Y3, Y0; \
	VMULPD	Y1, Y0, Y0

// func expAVX(dst, src *float64, n int) int
//
// dst[j] = exp(src[j]) for the leading groups of four whose values all have
// |x| <= 708 (a NaN does not); n is a multiple of 4.
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
exploop:
	CMPQ	AX, CX
	JGE	expdone
	VMOVUPD	(SI)(AX*8), Y0
	VANDPD	ABS, Y0, Y1
	VCMPPD	$2, EXPMAX, Y1, Y1
	VMOVMSKPD	Y1, DX
	CMPL	DX, $15
	JNE	expdone
	EXPSTEP
	VMOVUPD	Y0, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	exploop
expdone:
	VZEROUPPER
	MOVQ	AX, ret+24(FP)
	RET

// func sigmoidAVX(dst, src *float64, n int) int
//
// dst[j] = 1 / (1 + exp(-src[j])), in that order, for the leading groups of
// four whose values all have |x| <= 708; n is a multiple of 4.
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
	VMOVUPD	ONE, Y4
sigloop:
	CMPQ	AX, CX
	JGE	sigdone
	VMOVUPD	(SI)(AX*8), Y0
	VANDPD	ABS, Y0, Y1
	VCMPPD	$2, EXPMAX, Y1, Y1
	VMOVMSKPD	Y1, DX
	CMPL	DX, $15
	JNE	sigdone
	VXORPD	SIGN, Y0, Y0
	EXPSTEP
	VADDPD	Y4, Y0, Y0
	VDIVPD	Y0, Y4, Y0
	VMOVUPD	Y0, (DI)(AX*8)
	ADDQ	$4, AX
	JMP	sigloop
sigdone:
	VZEROUPPER
	MOVQ	AX, ret+24(FP)
	RET
