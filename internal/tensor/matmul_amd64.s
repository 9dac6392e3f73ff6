#include "textflag.h"

// AVX2 micro-kernel under matMulRows; the contract is in matmul_amd64.go and
// DESIGN.md §5.7. Every k-step is a separate VMULPD and VADDPD, never an FMA:
// one rounding per multiply and one per add is the rounding sequence of the
// scalar `s += a*b` that the Go tile and MatMulNaive run.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// One k-step of a 4-row tile: broadcast a[r][q] from row r of A, multiply it
// into the loaded B vector(s), add the product to row r's accumulator(s).
#define ROW8(aref, acc0, acc1) \
	VBROADCASTSD aref, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, acc0, acc0; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, acc1, acc1

#define ROW4(aref, acc) \
	VBROADCASTSD aref, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, acc, acc

// func matMulAVX2(a, b, o *float64, rows, kc, cols, rs, n, ks int)
//
// Registers: AX/SI A row group and cursor, BX/DX B column block and cursor,
// DI output tile, R8 rows left, R9 kc, CX k counter, R10 columns left,
// R11/R13 one and three A row strides in bytes, R12 the B and output row
// stride in bytes, R14 byte offset of the column block, R15 the A k-step
// stride in bytes.
TEXT ·matMulAVX2(SB), NOSPLIT, $0-72
	MOVQ kc+32(FP), R9
	MOVQ cols+40(FP), R10
	MOVQ rs+48(FP), R11
	SHLQ $3, R11
	MOVQ n+56(FP), R12
	SHLQ $3, R12
	MOVQ ks+64(FP), R15
	SHLQ $3, R15
	LEAQ (R11)(R11*2), R13
	XORQ R14, R14

col8:
	CMPQ R10, $8
	JLT  col4
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	ADDQ R14, BX
	MOVQ o+16(FP), DI
	ADDQ R14, DI
	MOVQ rows+24(FP), R8

r4c8:
	CMPQ    R8, $4
	JLT     r1c8
	LEAQ    (R12)(R12*2), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R12*1), Y2
	VMOVUPD 32(DI)(R12*1), Y3
	VMOVUPD (DI)(R12*2), Y4
	VMOVUPD 32(DI)(R12*2), Y5
	VMOVUPD (DI)(CX*1), Y6
	VMOVUPD 32(DI)(CX*1), Y7
	MOVQ    AX, SI
	MOVQ    BX, DX
	MOVQ    R9, CX

k4c8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	ROW8((SI), Y0, Y1)
	ROW8((SI)(R11*1), Y2, Y3)
	ROW8((SI)(R11*2), Y4, Y5)
	ROW8((SI)(R13*1), Y6, Y7)
	ADDQ    R15, SI
	ADDQ    R12, DX
	DECQ    CX
	JNZ     k4c8

	LEAQ    (R12)(R12*2), CX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R12*1)
	VMOVUPD Y3, 32(DI)(R12*1)
	VMOVUPD Y4, (DI)(R12*2)
	VMOVUPD Y5, 32(DI)(R12*2)
	VMOVUPD Y6, (DI)(CX*1)
	VMOVUPD Y7, 32(DI)(CX*1)
	LEAQ    (AX)(R11*4), AX
	LEAQ    (DI)(R12*4), DI
	SUBQ    $4, R8
	JMP     r4c8

r1c8:
	TESTQ   R8, R8
	JZ      next8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    AX, SI
	MOVQ    BX, DX
	MOVQ    R9, CX

k1c8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	ROW8((SI), Y0, Y1)
	ADDQ    R15, SI
	ADDQ    R12, DX
	DECQ    CX
	JNZ     k1c8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R11, AX
	ADDQ    R12, DI
	DECQ    R8
	JMP     r1c8

next8:
	ADDQ $64, R14
	SUBQ $8, R10
	JMP  col8

col4:
	CMPQ R10, $4
	JLT  done
	MOVQ a+0(FP), AX
	MOVQ b+8(FP), BX
	ADDQ R14, BX
	MOVQ o+16(FP), DI
	ADDQ R14, DI
	MOVQ rows+24(FP), R8

r4c4:
	CMPQ    R8, $4
	JLT     r1c4
	LEAQ    (R12)(R12*2), CX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R12*1), Y2
	VMOVUPD (DI)(R12*2), Y4
	VMOVUPD (DI)(CX*1), Y6
	MOVQ    AX, SI
	MOVQ    BX, DX
	MOVQ    R9, CX

k4c4:
	VMOVUPD (DX), Y8
	ROW4((SI), Y0)
	ROW4((SI)(R11*1), Y2)
	ROW4((SI)(R11*2), Y4)
	ROW4((SI)(R13*1), Y6)
	ADDQ    R15, SI
	ADDQ    R12, DX
	DECQ    CX
	JNZ     k4c4

	LEAQ    (R12)(R12*2), CX
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R12*1)
	VMOVUPD Y4, (DI)(R12*2)
	VMOVUPD Y6, (DI)(CX*1)
	LEAQ    (AX)(R11*4), AX
	LEAQ    (DI)(R12*4), DI
	SUBQ    $4, R8
	JMP     r4c4

r1c4:
	TESTQ   R8, R8
	JZ      done
	VMOVUPD (DI), Y0
	MOVQ    AX, SI
	MOVQ    BX, DX
	MOVQ    R9, CX

k1c4:
	VMOVUPD (DX), Y8
	ROW4((SI), Y0)
	ADDQ    R15, SI
	ADDQ    R12, DX
	DECQ    CX
	JNZ     k1c4

	VMOVUPD Y0, (DI)
	ADDQ    R11, AX
	ADDQ    R12, DI
	DECQ    R8
	JMP     r1c4

done:
	VZEROUPPER
	RET
