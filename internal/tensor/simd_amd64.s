#include "textflag.h"

// AVX2 lanes for the three matmuls. Every lane multiplies (VMULPS) and then
// adds (VADDPS) — never VFMADD — with the operand order the compiler's scalar
// MULSS/ADDSS use, so each output element rounds exactly as the Go loops in
// tensor.go do (DESIGN.md §12).

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
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
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX2(a float32, x, y []float32)
// y[j] += a*x[j] for j < min(len(x), len(y)).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	MOVQ x_len+16(FP), AX
	CMPQ AX, CX
	CMOVQLT AX, CX
axpy32:
	CMPQ CX, $32
	JLT  axpy8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  axpy32
axpy8:
	CMPQ CX, $8
	JLT  axpy1
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpy8
axpy1:
	TESTQ CX, CX
	JEQ   axpyDone
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JMP  axpy1
axpyDone:
	VZEROUPPER
	RET

// func dotColsAVX2(c, a, bt []float32, stride int)
// c[j] = Σ_p a[p]·bt[p·stride+j] for j < len(c), p ascending from +0 in every
// lane. len(c) is a multiple of 8; columns go 32 and then 8 at a time.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-80
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ bt_base+48(FP), BX
	MOVQ stride+72(FP), R9
	SHLQ $2, R9
dot32:
	CMPQ CX, $32
	JLT  dot8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ BX, R10
	XORQ R11, R11
dot32p:
	CMPQ R11, R8
	JGE  dot32store
	VBROADCASTSS (SI)(R11*4), Y4
	VMOVUPS (R10), Y5
	VMOVUPS 32(R10), Y6
	VMOVUPS 64(R10), Y7
	VMOVUPS 96(R10), Y8
	VMULPS  Y4, Y5, Y5
	VMULPS  Y4, Y6, Y6
	VMULPS  Y4, Y7, Y7
	VMULPS  Y4, Y8, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ R9, R10
	INCQ R11
	JMP  dot32p
dot32store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  dot32
dot8:
	CMPQ CX, $8
	JLT  dotDone
	VXORPS Y0, Y0, Y0
	MOVQ BX, R10
	XORQ R11, R11
dot8p:
	CMPQ R11, R8
	JGE  dot8store
	VBROADCASTSS (SI)(R11*4), Y4
	VMOVUPS (R10), Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ R9, R10
	INCQ R11
	JMP  dot8p
dot8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  dot8
dotDone:
	VZEROUPPER
	RET
