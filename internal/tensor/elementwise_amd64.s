#include "textflag.h"

// AVX2 loops under ReluFlat, ReluBackwardInto, AddFlat and the Adam case of
// UpdateRule.apply; the contract is in matmul_amd64.go and DESIGN.md §5.7.
// n is a multiple of 4. Every lane runs the operations of the Go loop it
// stands in for, in the same order and with the same operand order, each
// rounded once: there is no FMA, and VSQRTPD and VDIVPD round correctly like
// the scalar SQRTSD and DIVSD.

// func reluAVX2(dst, a *float64, n int)
//
// Go's max(x, 0) is +0 for x ≤ 0 (-0 included), x for x > 0 and, for a NaN,
// that NaN with its sign bit cleared. VMAXPD with x as its second source
// returns x when either operand is NaN or both are zeros, and 0 or x
// otherwise; clearing the sign bit turns -0 into +0 and the NaN into Go's.
#define RELU(off) \
	VMAXPD  off(SI), Y0, Y2; \
	VANDPD  Y1, Y2, Y2; \
	VMOVUPD Y2, off(DI)

TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ     dst+0(FP), DI
	MOVQ     a+8(FP), SI
	MOVQ     n+16(FP), CX
	VXORPD   Y0, Y0, Y0
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ   $1, Y1, Y1 // every bit but the sign

relu8:
	CMPQ CX, $8
	JLT  relu4
	RELU(0)
	RELU(32)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  relu8

relu4:
	TESTQ CX, CX
	JZ    reludone
	RELU(0)

reludone:
	VZEROUPPER
	RET

// func reluBackwardAVX2(dst, gy, x *float64, n int)
//
// gy·m with m = 1 where 0 < x (ordered: false for NaN) and 0 elsewhere: the
// Go loop's multiply by exactly 1 or +0, so 0·Inf stays NaN and -g·0 stays -0.
#define RELUBACK(off) \
	VCMPPD  $0x11, off(BX), Y0, Y2; \
	VANDPD  Y1, Y2, Y2; \
	VMULPD  off(SI), Y2, Y2; \
	VMOVUPD Y2, off(DI)

TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         gy+8(FP), SI
	MOVQ         x+16(FP), BX
	MOVQ         n+24(FP), CX
	VXORPD       Y0, Y0, Y0
	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1

back8:
	CMPQ CX, $8
	JLT  back4
	RELUBACK(0)
	RELUBACK(32)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  back8

back4:
	TESTQ CX, CX
	JZ    backdone
	RELUBACK(0)

backdone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float64, n int)
#define ADD(off) \
	VMOVUPD off(SI), Y0; \
	VADDPD  off(DX), Y0, Y0; \
	VMOVUPD Y0, off(DI)

TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

add8:
	CMPQ CX, $8
	JLT  add4
	ADD(0)
	ADD(32)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  add8

add4:
	TESTQ CX, CX
	JZ    adddone
	ADD(0)

adddone:
	VZEROUPPER
	RET

// A slot entry x with |x| < thr is stored as +0: keep x where |x| is not
// less than thr (unordered: true for NaN, so NaN survives) and clear it
// elsewhere, which is flushSlot's rule, -0 included.
#define FLUSH(x, tmp) \
	VANDPD Y6, x, tmp; \
	VCMPPD $0x15, Y7, tmp, tmp; \
	VANDPD tmp, x, x

// func adamAVX2(w, grad, m, v *float64, n int, s adamStep)
//
// Registers: DI w, SI grad, DX m, BX v, CX elements left; Y15..Y7 the step's
// scale, β1, 1-β1, β2, 1-β2, c, ε, -lr and flush threshold, Y6 the sign-clear
// mask; Y0 gs, Y1 m, Y2 v, Y3 scratch.
TEXT ·adamAVX2(SB), NOSPLIT, $0-112
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSD s_scale+40(FP), Y15
	VBROADCASTSD s_b1+48(FP), Y14
	VBROADCASTSD s_omb1+56(FP), Y13
	VBROADCASTSD s_b2+64(FP), Y12
	VBROADCASTSD s_omb2+72(FP), Y11
	VBROADCASTSD s_c+80(FP), Y10
	VBROADCASTSD s_eps+88(FP), Y9
	VBROADCASTSD s_nlr+96(FP), Y8
	VBROADCASTSD s_thr+104(FP), Y7
	VPCMPEQQ     Y6, Y6, Y6
	VPSRLQ       $1, Y6, Y6
	SHRQ         $2, CX
	JZ           adamdone

adam4:
	VMOVUPD (SI), Y0
	VMULPD  Y15, Y0, Y0 // gs = g·scale
	VMOVUPD (DX), Y1
	VMULPD  Y14, Y1, Y1 // m·β1
	VMULPD  Y13, Y0, Y3 // gs·(1-β1)
	VADDPD  Y3, Y1, Y1
	FLUSH(Y1, Y3)
	VMOVUPD Y1, (DX)
	VMOVUPD (BX), Y2
	VMULPD  Y12, Y2, Y2 // v·β2
	VMULPD  Y0, Y0, Y3  // gs·gs
	VMULPD  Y11, Y3, Y3 // ·(1-β2)
	VADDPD  Y3, Y2, Y2
	FLUSH(Y2, Y3)
	VMOVUPD Y2, (BX)
	VMULPD  Y10, Y1, Y1 // m·c
	VSQRTPD Y2, Y2
	VADDPD  Y9, Y2, Y2  // √v + ε
	VDIVPD  Y2, Y1, Y1
	VMULPD  Y1, Y8, Y1  // -lr·(m·c / (√v + ε))
	VMOVUPD (DI), Y3
	VADDPD  Y1, Y3, Y3  // w + that
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adam4

adamdone:
	VZEROUPPER
	RET
