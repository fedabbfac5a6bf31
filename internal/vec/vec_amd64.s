#include "textflag.h"

// Each elementwise kernel runs four float64 lanes per iteration, then a
// scalar tail; mulAddRowsAVX2 puts one output row in each lane. A lane
// performs the scalar row loop's operations in its order, with a
// separate VMULPD and VADDPD/VSUBPD for every step (no FMA), so results
// are bit-identical to the Go loops in vec.go. Scalar tails use the VEX
// forms so no SSE/AVX transition occurs before VZEROUPPER.

// func axpyAVX2(dst, src []float64, a float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpytail

axpyloop:
	VMULPD  (SI)(AX*8), Y0, Y1 // a*src
	VADDPD  (DI)(AX*8), Y1, Y1 // dst + a*src
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpyloop

axpytail:
	CMPQ   AX, CX
	JAE    axpydone
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func sgdAVX2(w, v, x []float64, d, lr, m float64)
TEXT ·sgdAVX2(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         v_base+24(FP), SI
	MOVQ         x_base+48(FP), BX
	VBROADCASTSD d+72(FP), Y0
	VBROADCASTSD lr+80(FP), Y1
	VBROADCASTSD m+88(FP), Y2
	VXORPD       Y3, Y3, Y3 // +0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           sgdtail

sgdloop:
	VMULPD  (BX)(AX*8), Y0, Y4 // d*x
	VADDPD  Y3, Y4, Y4         // g = 0 + d*x
	VMULPD  Y1, Y4, Y4         // lr*g
	VMULPD  (SI)(AX*8), Y2, Y5 // m*v
	VSUBPD  Y4, Y5, Y5         // v = m*v - lr*g
	VMOVUPD Y5, (SI)(AX*8)
	VADDPD  (DI)(AX*8), Y5, Y5 // w + v
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      sgdloop

sgdtail:
	CMPQ   AX, CX
	JAE    sgddone
	VMULSD (BX)(AX*8), X0, X4
	VADDSD X3, X4, X4
	VMULSD X1, X4, X4
	VMULSD (SI)(AX*8), X2, X5
	VSUBSD X4, X5, X5
	VMOVSD X5, (SI)(AX*8)
	VADDSD (DI)(AX*8), X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    sgdtail

sgddone:
	VZEROUPPER
	RET

// func sgdInputGradAVX2(w, v, x, gradIn []float64, d, lr, m float64)
TEXT ·sgdInputGradAVX2(SB), NOSPLIT, $0-120
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         v_base+24(FP), SI
	MOVQ         x_base+48(FP), BX
	MOVQ         gradIn_base+72(FP), R8
	VBROADCASTSD d+96(FP), Y0
	VBROADCASTSD lr+104(FP), Y1
	VBROADCASTSD m+112(FP), Y2
	VXORPD       Y3, Y3, Y3 // +0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           sigtail

sigloop:
	VMOVUPD (DI)(AX*8), Y6     // old w
	VMULPD  Y6, Y0, Y7         // d*w
	VADDPD  (R8)(AX*8), Y7, Y7 // gradIn + d*w
	VMOVUPD Y7, (R8)(AX*8)
	VMULPD  (BX)(AX*8), Y0, Y4 // d*x
	VADDPD  Y3, Y4, Y4         // g = 0 + d*x
	VMULPD  Y1, Y4, Y4         // lr*g
	VMULPD  (SI)(AX*8), Y2, Y5 // m*v
	VSUBPD  Y4, Y5, Y5         // v = m*v - lr*g
	VMOVUPD Y5, (SI)(AX*8)
	VADDPD  Y6, Y5, Y5         // w + v
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      sigloop

sigtail:
	CMPQ   AX, CX
	JAE    sigdone
	VMOVSD (DI)(AX*8), X6
	VMULSD X6, X0, X7
	VADDSD (R8)(AX*8), X7, X7
	VMOVSD X7, (R8)(AX*8)
	VMULSD (BX)(AX*8), X0, X4
	VADDSD X3, X4, X4
	VMULSD X1, X4, X4
	VMULSD (SI)(AX*8), X2, X5
	VSUBSD X4, X5, X5
	VMOVSD X5, (SI)(AX*8)
	VADDSD X6, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    sigtail

sigdone:
	VZEROUPPER
	RET

// func stepAVX2(w, v, g []float64, lr, m, inv float64)
TEXT ·stepAVX2(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         v_base+24(FP), SI
	MOVQ         g_base+48(FP), BX
	VBROADCASTSD lr+72(FP), Y1
	VBROADCASTSD m+80(FP), Y2
	VBROADCASTSD inv+88(FP), Y0
	VXORPD       Y3, Y3, Y3 // +0, to clear g
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           steptail

steploop:
	VMULPD  (BX)(AX*8), Y1, Y4 // lr*g
	VMULPD  Y0, Y4, Y4         // (lr*g)*inv
	VMULPD  (SI)(AX*8), Y2, Y5 // m*v
	VSUBPD  Y4, Y5, Y5         // v = m*v - (lr*g)*inv
	VMOVUPD Y5, (SI)(AX*8)
	VADDPD  (DI)(AX*8), Y5, Y5 // w + v
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y3, (BX)(AX*8)     // g = 0
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      steploop

steptail:
	CMPQ   AX, CX
	JAE    stepdone
	VMULSD (BX)(AX*8), X1, X4
	VMULSD X0, X4, X4
	VMULSD (SI)(AX*8), X2, X5
	VSUBSD X4, X5, X5
	VMOVSD X5, (SI)(AX*8)
	VADDSD (DI)(AX*8), X5, X5
	VMOVSD X5, (DI)(AX*8)
	VMOVSD X3, (BX)(AX*8)
	INCQ   AX
	JMP    steptail

stepdone:
	VZEROUPPER
	RET

// mulAddRowsAVX2 keeps the lanes on outputs, not on inputs: each
// accumulator holds four consecutive outputs z[o..o+3], and each lane adds
// its own row's products in input order, so no dot product is
// reassociated. One step takes inputs i and i+1 (QUAD below). The rows go
// eight at a time on two accumulators, so two add chains are in flight,
// then the last four on one. Rows are read through their slice
// headers, so they need not be contiguous. The index AX runs from -len(x)
// up to 0 against row and input pointers set to their ends.

// QUAD adds inputs i and i+1 of rows a, b, c and d to the lanes of acc,
// given Y2 = x[i], x[i+1] in both halves. It loads the weight pairs of
// rows a and c into the low and high halves of Y3 and those of b and d
// into Y4, multiplies both by Y2, and unpacks the products into "input i
// of rows a..d" and "input i+1 of rows a..d", which it adds in that order.
#define QUAD(a, b, c, d, acc) \
	VMOVUPD     (a)(AX*8), X3             \
	VINSERTF128 $1, (c)(AX*8), Y3, Y3     \
	VMOVUPD     (b)(AX*8), X4             \
	VINSERTF128 $1, (d)(AX*8), Y4, Y4     \
	VMULPD      Y2, Y3, Y3                \
	VMULPD      Y2, Y4, Y4                \
	VUNPCKLPD   Y4, Y3, Y5                \
	VUNPCKHPD   Y4, Y3, Y6                \
	VADDPD      Y5, acc, acc              \
	VADDPD      Y6, acc, acc

// ROWS4 loads the row pointers W[k..k+3] (headers 24 bytes apart,
// starting at byte off from CX) into a, b, c and d.
#define ROWS4(off, a, b, c, d) \
	MOVQ off(CX), a    \
	MOVQ off+24(CX), b \
	MOVQ off+48(CX), c \
	MOVQ off+72(CX), d

// ENDS4 moves the row pointers a, b, c and d to their rows' ends, given
// AX = len(x).
#define ENDS4(a, b, c, d) \
	LEAQ (a)(AX*8), a \
	LEAQ (b)(AX*8), b \
	LEAQ (c)(AX*8), c \
	LEAQ (d)(AX*8), d

// func mulAddRowsAVX2(z []float64, W [][]float64, x []float64)
TEXT ·mulAddRowsAVX2(SB), NOSPLIT, $8-72
	MOVQ z_base+0(FP), DX  // z[o]
	MOVQ W_base+24(FP), CX // W[o]'s header
	MOVQ z_len+8(FP), AX
	MOVQ AX, rows-8(SP)    // rows left
	MOVQ x_base+48(FP), BX
	MOVQ x_len+56(FP), AX
	LEAQ (BX)(AX*8), BX    // end of x

mul8:
	CMPQ    rows-8(SP), $8
	JB      mul4
	ROWS4(0, SI, DI, R8, R9)
	ROWS4(96, R10, R11, R12, R13)
	MOVQ    x_len+56(FP), AX
	ENDS4(SI, DI, R8, R9)
	ENDS4(R10, R11, R12, R13)
	NEGQ    AX
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1

mul8pair:
	VBROADCASTF128 (BX)(AX*8), Y2
	QUAD(SI, DI, R8, R9, Y0)
	QUAD(R10, R11, R12, R13, Y1)
	ADDQ           $2, AX
	JNZ            mul8pair

	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	ADDQ    $192, CX
	SUBQ    $8, rows-8(SP)
	JMP     mul8

	// len(z) is a multiple of four, so four rows or none are left.
mul4:
	CMPQ    rows-8(SP), $4
	JB      muldone
	ROWS4(0, SI, DI, R8, R9)
	MOVQ    x_len+56(FP), AX
	ENDS4(SI, DI, R8, R9)
	NEGQ    AX
	VMOVUPD 0(DX), Y0

mul4pair:
	VBROADCASTF128 (BX)(AX*8), Y2
	QUAD(SI, DI, R8, R9, Y0)
	ADDQ           $2, AX
	JNZ            mul4pair

	VMOVUPD Y0, 0(DX)

muldone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
