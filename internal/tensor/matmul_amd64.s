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

// tailmask<>+8·(4-c) is the mask of a block's c leading lanes.
DATA tailmask<>+0x00(SB)/8, $-1
DATA tailmask<>+0x08(SB)/8, $-1
DATA tailmask<>+0x10(SB)/8, $-1
DATA tailmask<>+0x18(SB)/8, $-1
DATA tailmask<>+0x20(SB)/8, $0
DATA tailmask<>+0x28(SB)/8, $0
DATA tailmask<>+0x30(SB)/8, $0
DATA tailmask<>+0x38(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func matMulAVX2(a, b, o *float64, rows, kc, cols, rs, n, ks int)
//
// Registers: AX/SI A row group and cursor, BX/DX B column block and cursor,
// DI output tile, R8 rows left, R9 kc, CX k counter, R10 columns left,
// R11/R13 one and three A row strides in bytes, R12 the B and output row
// stride in bytes, R14 byte offset of the column block, R15 the A k-step
// stride in bytes, Y13 the lane mask of the last block.
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
	JLT  tail
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

tail:
	TESTQ R10, R10
	JZ    done

// The 1 to 7 columns left after the 8-column blocks go 4 at a time, the
// loads of B and of the output tile and the stores through a mask of the
// block's leading lanes (all four but in the last block), so a lane past
// cols is neither read nor written.
colm:
	MOVQ       $4, CX
	SUBQ       R10, CX
	XORQ       DX, DX
	CMPQ       CX, DX
	CMOVQLT    DX, CX // CX = 4 - min(cols left, 4)
	LEAQ       tailmask<>(SB), DX
	VMOVUPD    (DX)(CX*8), Y13
	MOVQ       a+0(FP), AX
	MOVQ       b+8(FP), BX
	ADDQ       R14, BX
	MOVQ       o+16(FP), DI
	ADDQ       R14, DI
	MOVQ       rows+24(FP), R8

r4cm:
	CMPQ       R8, $4
	JLT        r1cm
	LEAQ       (R12)(R12*2), CX
	VMASKMOVPD (DI), Y13, Y0
	VMASKMOVPD (DI)(R12*1), Y13, Y2
	VMASKMOVPD (DI)(R12*2), Y13, Y4
	VMASKMOVPD (DI)(CX*1), Y13, Y6
	MOVQ       AX, SI
	MOVQ       BX, DX
	MOVQ       R9, CX

k4cm:
	VMASKMOVPD (DX), Y13, Y8
	ROW4((SI), Y0)
	ROW4((SI)(R11*1), Y2)
	ROW4((SI)(R11*2), Y4)
	ROW4((SI)(R13*1), Y6)
	ADDQ       R15, SI
	ADDQ       R12, DX
	DECQ       CX
	JNZ        k4cm

	LEAQ       (R12)(R12*2), CX
	VMASKMOVPD Y0, Y13, (DI)
	VMASKMOVPD Y2, Y13, (DI)(R12*1)
	VMASKMOVPD Y4, Y13, (DI)(R12*2)
	VMASKMOVPD Y6, Y13, (DI)(CX*1)
	LEAQ       (AX)(R11*4), AX
	LEAQ       (DI)(R12*4), DI
	SUBQ       $4, R8
	JMP        r4cm

r1cm:
	TESTQ      R8, R8
	JZ         nextm
	VMASKMOVPD (DI), Y13, Y0
	MOVQ       AX, SI
	MOVQ       BX, DX
	MOVQ       R9, CX

k1cm:
	VMASKMOVPD (DX), Y13, Y8
	ROW4((SI), Y0)
	ADDQ       R15, SI
	ADDQ       R12, DX
	DECQ       CX
	JNZ        k1cm

	VMASKMOVPD Y0, Y13, (DI)
	ADDQ       R11, AX
	ADDQ       R12, DI
	DECQ       R8
	JMP        r1cm

nextm:
	ADDQ       $32, R14
	SUBQ       $4, R10
	JG         colm

done:
	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows, cols, ds, ss int)
//
// A 4x4 block of rows a, b, c, d goes in as four YMM registers, each built
// from two 2-element halves, [a0 a1 c0 c1], [b0 b1 d0 d1], [a2 a3 c2 c3] and
// [b2 b3 d2 d3]; the low and high interleaves of the first two and of the
// last two are the block's four columns. Registers: SI/AX a strip of 4 src
// rows and the cursor along it, DI/BX the 4 dst columns it fills and the
// cursor down them, R8 rows left, CX columns left, R10/R12 one and three dst
// row strides in bytes, R11/R13 one and three src row strides in bytes.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ ds+32(FP), R10
	SHLQ $3, R10
	MOVQ ss+40(FP), R11
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13

strip:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX

block:
	VMOVUPD     (AX), X0
	VINSERTF128 $1, (AX)(R11*2), Y0, Y0
	VMOVUPD     (AX)(R11*1), X1
	VINSERTF128 $1, (AX)(R13*1), Y1, Y1
	VMOVUPD     16(AX), X2
	VINSERTF128 $1, 16(AX)(R11*2), Y2, Y2
	VMOVUPD     16(AX)(R11*1), X3
	VINSERTF128 $1, 16(AX)(R13*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMOVUPD     Y4, (BX)
	VMOVUPD     Y5, (BX)(R10*1)
	VMOVUPD     Y6, (BX)(R10*2)
	VMOVUPD     Y7, (BX)(R12*1)
	ADDQ        $32, AX
	LEAQ        (BX)(R10*4), BX
	SUBQ        $4, CX
	JNZ         block

	LEAQ (SI)(R11*4), SI
	ADDQ $32, DI
	SUBQ $4, R8
	JNZ  strip
	VZEROUPPER
	RET
