#include "textflag.h"

// Each kernel runs four float64 lanes per iteration, then a scalar tail.
// A lane performs the scalar row loop's operations in its order, with a
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
