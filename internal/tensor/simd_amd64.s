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

// The five elementwise kernels take whole registers: their callers
// (simd_amd64.go) finish what is left of a slice with the Go loops.

// func axpyAVX2(a float32, x, y []float32)
// y[j] += a*x[j] for j < len(x) &^ 7; y is as long as x.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
axpy8:
	CMPQ CX, $8
	JLT  axpyDone
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpy8
axpyDone:
	VZEROUPPER
	RET

// MAC adds a·b[off/4 … off/4+8) to eight sums: the product rounds, then the sum.
#define MAC(off, tmp, acc) \
	VMOVUPS off(R10), tmp \
	VMULPS  Y15, tmp, tmp \
	VADDPS  tmp, acc, acc

// TAILMAC is MAC over the remainder's last 8 columns, DX bytes into the pass.
#define TAILMAC \
	VMOVUPS (R10)(DX*1), Y11 \
	VMULPS  Y15, Y11, Y11 \
	VADDPS  Y11, Y7, Y7

// RSTART goes straight to the store when there is no term.
#define RSTART(store) \
	TESTQ R11, R11 \
	JEQ   store

// RTERM loads term p's a, goes to next when the skip leaves it out, and
// otherwise broadcasts it.
#define RTERM(next) \
	MOVL (R14), AX \
	LEAL (R13)(AX*2), AX \
	TESTL AX, AX \
	JEQ  next \
	VBROADCASTSS (R14), Y15

// RNEXT steps to term p+1 and loops while terms are left.
#define RNEXT(label) \
	ADDQ R12, R14 \
	ADDQ R9, R10 \
	DECQ R11 \
	JNE  label

// func rowAVX2(c, a []float32, astride int, b []float32, bstride, k int, skip bool)
// c[j] = Σ_p a[p·astride]·b[p·bstride+j] for j < len(c) and p < k, p ascending
// from +0 in every lane; with skip, the terms whose a is ±0 are left out.
// len(c) ≥ 8. Columns go 64 at a time, and then the r < 64 left in one pass of
// ⌈r/8⌉ tiles of 8, each tile's sums in registers for the whole p loop: one
// pass holds as many add chains as it has tiles. The pass's last tile (Y7)
// covers the row's last 8 columns; when r is not a multiple of 8 it overlaps
// the tile before it and stores again what that tile stores there.
TEXT ·rowAVX2(SB), NOSPLIT, $0-97
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ astride+48(FP), R12
	MOVQ b_base+56(FP), BX
	MOVQ bstride+80(FP), R9
	MOVQ k+88(FP), R8
	MOVBLZX skip+96(FP), R13
	XORL $1, R13 // a's bits, sign shifted out, plus this: 0 only for a skipped ±0
	SHLQ $2, R12
	SHLQ $2, R9
row64:
	CMPQ CX, $64
	JLT  rowRest
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R14
	MOVQ BX, R10
	MOVQ R8, R11
	RSTART(row64store)
row64p:
	RTERM(row64next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	MAC(96, Y11, Y3)
	MAC(128, Y8, Y4)
	MAC(160, Y9, Y5)
	MAC(192, Y10, Y6)
	MAC(224, Y11, Y7)
row64next:
	RNEXT(row64p)
row64store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $64, CX
	JMP  row64
rowRest:
	TESTQ CX, CX
	JEQ   rowDone
	MOVQ  CX, DX
	SHLQ  $2, DX
	SUBQ  $32, DX // the last tile's offset: r−8 columns, negative for r < 8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R14
	MOVQ BX, R10
	MOVQ R8, R11
	DECQ CX
	SHRQ $3, CX // tiles − 1
	CMPQ CX, $1
	JLT  rest1
	JEQ  rest2
	CMPQ CX, $3
	JLT  rest3
	JEQ  rest4
	CMPQ CX, $5
	JLT  rest5
	JEQ  rest6
	CMPQ CX, $7
	JLT  rest7
rest8:
	RSTART(rest8store)
rest8p:
	RTERM(rest8next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	MAC(96, Y8, Y3)
	MAC(128, Y9, Y4)
	MAC(160, Y10, Y5)
	MAC(192, Y8, Y6)
	TAILMAC
rest8next:
	RNEXT(rest8p)
	JMP rest8store
rest7:
	RSTART(rest7store)
rest7p:
	RTERM(rest7next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	MAC(96, Y8, Y3)
	MAC(128, Y9, Y4)
	MAC(160, Y10, Y5)
	TAILMAC
rest7next:
	RNEXT(rest7p)
	JMP rest7store
rest6:
	RSTART(rest6store)
rest6p:
	RTERM(rest6next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	MAC(96, Y8, Y3)
	MAC(128, Y9, Y4)
	TAILMAC
rest6next:
	RNEXT(rest6p)
	JMP rest6store
rest5:
	RSTART(rest5store)
rest5p:
	RTERM(rest5next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	MAC(96, Y8, Y3)
	TAILMAC
rest5next:
	RNEXT(rest5p)
	JMP rest5store
rest4:
	RSTART(rest4store)
rest4p:
	RTERM(rest4next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	MAC(64, Y10, Y2)
	TAILMAC
rest4next:
	RNEXT(rest4p)
	JMP rest4store
rest3:
	RSTART(rest3store)
rest3p:
	RTERM(rest3next)
	MAC(0, Y8, Y0)
	MAC(32, Y9, Y1)
	TAILMAC
rest3next:
	RNEXT(rest3p)
	JMP rest3store
rest2:
	RSTART(rest2store)
rest2p:
	RTERM(rest2next)
	MAC(0, Y8, Y0)
	TAILMAC
rest2next:
	RNEXT(rest2p)
	JMP rest2store
rest1:
	RSTART(rest1store)
rest1p:
	RTERM(rest1next)
	TAILMAC
rest1next:
	RNEXT(rest1p)
	JMP rest1store
// A pass of t tiles enters the stores at rest<t>store, each storing its
// tile and falling through to the tiles below it.
rest8store:
	VMOVUPS Y6, 192(DI)
rest7store:
	VMOVUPS Y5, 160(DI)
rest6store:
	VMOVUPS Y4, 128(DI)
rest5store:
	VMOVUPS Y3, 96(DI)
rest4store:
	VMOVUPS Y2, 64(DI)
rest3store:
	VMOVUPS Y1, 32(DI)
rest2store:
	VMOVUPS Y0, (DI)
rest1store:
	VMOVUPS Y7, (DI)(DX*1)
rowDone:
	VZEROUPPER
	RET

// func tile4AVX2(c []float32, cstride int, a []float32, arow int, b []float32, bstride, k int)
// Four rows of rowAVX2's 8-column tile without the skip:
// c[r·cstride+j] = Σ_p a[r·arow+p]·b[p·bstride+j] for r < 4 and j < 8. One load
// of b feeds four sums that do not wait on each other; each is still its own
// ascending-p sum from +0.
TEXT ·tile4AVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ cstride+24(FP), DX
	MOVQ a_base+32(FP), SI
	MOVQ arow+56(FP), R12
	MOVQ b_base+64(FP), BX
	MOVQ bstride+88(FP), R9
	MOVQ k+96(FP), R8
	SHLQ $2, DX
	SHLQ $2, R12
	SHLQ $2, R9
	LEAQ (R12)(R12*2), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ R8, R8
	JEQ   tile4store
tile4p:
	VMOVUPS (BX), Y4
	VBROADCASTSS (SI), Y5
	VBROADCASTSS (SI)(R12*1), Y6
	VBROADCASTSS (SI)(R12*2), Y7
	VBROADCASTSS (SI)(R13*1), Y8
	VMULPS Y5, Y4, Y5
	VMULPS Y6, Y4, Y6
	VMULPS Y7, Y4, Y7
	VMULPS Y8, Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $4, SI
	ADDQ R9, BX
	DECQ R8
	JNE  tile4p
tile4store:
	LEAQ (DX)(DX*2), R13
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y2, (DI)(DX*2)
	VMOVUPS Y3, (DI)(R13*1)
	VZEROUPPER
	RET

// func scaleAVX2(x []float32, alpha float32)
// x[j] *= alpha for j < len(x) &^ 7.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSS alpha+24(FP), Y0
scale8:
	CMPQ CX, $8
	JLT  scaleDone
	VMOVUPS (DI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  scale8
scaleDone:
	VZEROUPPER
	RET

// func addAVX2(y, x []float32, fromZero bool)
// y[j] += x[j] for j < len(x) &^ 7, the running sum the first source as in
// the compiler's ADDSS; with fromZero, y[j] = +0 + x[j] without reading y.
TEXT ·addAVX2(SB), NOSPLIT, $0-49
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVBLZX fromZero+48(FP), AX
	VXORPS Y0, Y0, Y0
	TESTQ AX, AX
	JNZ  addZero8
add8:
	CMPQ CX, $8
	JLT  addDone
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  add8
addZero8:
	CMPQ CX, $8
	JLT  addDone
	VADDPS  (SI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  addZero8
addDone:
	VZEROUPPER
	RET

// func maxAbsAVX2(x []float32) float32
// max |x[j]| from +0 over j < len(x) &^ 31. The running maximum is VMAXPS's second source, the one
// it returns when an operand is NaN, so a NaN element is passed over as the
// Go loop's v > m passes over it; the lanes hold no NaN when they are folded.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VPCMPEQD Y5, Y5, Y5
	VPSRLD   $1, Y5, Y5 // 0x7fffffff: clears the sign
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
max32:
	CMPQ CX, $32
	JLT  maxFold
	VANDPS (SI), Y5, Y4
	VMAXPS Y0, Y4, Y0
	VANDPS 32(SI), Y5, Y4
	VMAXPS Y1, Y4, Y1
	VANDPS 64(SI), Y5, Y4
	VMAXPS Y2, Y4, Y2
	VANDPS 96(SI), Y5, Y4
	VMAXPS Y3, Y4, Y3
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  max32
maxFold:
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPSRLDQ $8, X0, X1
	VMAXPS X1, X0, X0
	VPSRLDQ $4, X0, X1
	VMAXSS X1, X0, X0
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func momentumAVX2(w, g, v []float32, lr, mom, wd float32)
// g[j] += wd·w[j] unless wd is ±0, then v[j] = mom·v[j] + g[j] and
// w[j] -= lr·v[j], for j < len(w) &^ 7: each product, sum and difference rounded.
TEXT ·momentumAVX2(SB), NOSPLIT, $0-84
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ v_base+48(FP), BX
	VBROADCASTSS lr+72(FP), Y0
	VBROADCASTSS mom+76(FP), Y1
	VBROADCASTSS wd+80(FP), Y6
	MOVL wd+80(FP), AX
	ADDL AX, AX // 0 when wd is ±0
mom8:
	CMPQ CX, $8
	JLT  momDone
	VMOVUPS (DI), Y3
	VMOVUPS (SI), Y4
	TESTL AX, AX
	JEQ   mom8v
	VMULPS  Y6, Y3, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (SI)
mom8v:
	VMOVUPS (BX), Y2
	VMULPS  Y1, Y2, Y2
	VADDPS  Y4, Y2, Y2
	VMOVUPS Y2, (BX)
	VMULPS  Y0, Y2, Y2
	VSUBPS  Y2, Y3, Y3
	VMOVUPS Y3, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  mom8
momDone:
	VZEROUPPER
	RET

// func finiteAVX2(x []float32) bool
// Whether every x[j] is finite: x − x is +0 for a finite x and NaN for ±Inf or
// NaN, so the OR of all the differences has no bit set exactly when every
// element is finite. len(x) is a multiple of 8.
TEXT ·finiteAVX2(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
fin32:
	CMPQ CX, $32
	JLT  fin8
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VSUBPS  Y4, Y4, Y4
	VSUBPS  Y5, Y5, Y5
	VSUBPS  Y6, Y6, Y6
	VSUBPS  Y7, Y7, Y7
	VORPS   Y4, Y0, Y0
	VORPS   Y5, Y1, Y1
	VORPS   Y6, Y2, Y2
	VORPS   Y7, Y3, Y3
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  fin32
fin8:
	CMPQ CX, $8
	JLT  finDone
	VMOVUPS (SI), Y4
	VSUBPS  Y4, Y4, Y4
	VORPS   Y4, Y0, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  fin8
finDone:
	VORPS  Y1, Y0, Y0
	VORPS  Y3, Y2, Y2
	VORPS  Y2, Y0, Y0
	VPTEST Y0, Y0
	SETEQ  ret+24(FP)
	VZEROUPPER
	RET

// The direct convolution's kernels (conv.go; Go loops convRowGo and
// convWeightGo in simd.go). They keep the matmuls' operand order — the weight
// (forward, input gradient) or the input (weight gradient) is the first
// factor, the running sum the first addend — and leave a masked term as a +0
// product, so each element rounds as the lowering rounds it.

// CTERM points R10 at the next term's b (b + off[p]·4) and broadcasts its a.
#define CTERM \
	MOVLQSX (R15), R10 \
	LEAQ    (BX)(R10*4), R10 \
	VBROADCASTSS (R14), Y15

// CNEXT steps to the next term and loops while terms are left.
#define CNEXT(label) \
	ADDQ $4, R15 \
	ADDQ $4, R14 \
	DECQ R11 \
	JNE  label

// CMAC adds a·b[off/4 … off/4+8) to eight sums.
#define CMAC(off, tmp, acc) \
	VMULPS off(R10), Y15, tmp \
	VADDPS tmp, acc, acc

// CMMAC is CMAC with a +0 product in every lane whose b is ±0.
#define CMMAC(off, tmp, m, acc) \
	VMOVUPS off(R10), tmp \
	VCMPPS  $4, Y14, tmp, m \
	VMULPS  tmp, Y15, tmp \
	VANDPS  m, tmp, tmp \
	VADDPS  tmp, acc, acc

// CACC turns eight sums into c[off/4 … off/4+8) plus the sums.
#define CACC(off, tmp, acc) \
	VMOVUPS off(DI), tmp \
	VADDPS  acc, tmp, acc

// CBIAS adds the broadcast bias (Y8) to eight sums, the sum the first addend.
#define CBIAS(acc) VADDPS Y8, acc, acc

// CSTART points the term walk at the first term, or goes straight to the
// store when there is none.
#define CSTART(store) \
	MOVQ SI, R14 \
	MOVQ R8, R15 \
	MOVQ R9, R11 \
	TESTQ R11, R11 \
	JEQ  store

// func convRowAVX2(c, a, b []float32, off []int32, mask, acc bool, bias float32)
// c[j] = Σ_p a[p]·b[off[p]+j] for j < len(c) and p < len(off), p
// ascending from +0 in every lane; with mask a lane whose b is ±0 adds +0; with
// acc the sums are added to c, and otherwise bias is added to them. len(c) is a
// multiple of 8; off may be empty. Columns go 64, 32 and then 8 at a time, each
// tile's sums in registers for the whole term loop.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ off_base+72(FP), R8
	MOVQ off_len+80(FP), R9
	MOVBLZX mask+96(FP), R13
	MOVBLZX acc+97(FP), DX
	VXORPS Y14, Y14, Y14
cr64:
	CMPQ CX, $64
	JLT  cr32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CSTART(cr64store)
	TESTQ R13, R13
	JNE   cr64m
cr64p:
	CTERM
	CMAC(0, Y8, Y0)
	CMAC(32, Y9, Y1)
	CMAC(64, Y10, Y2)
	CMAC(96, Y11, Y3)
	CMAC(128, Y8, Y4)
	CMAC(160, Y9, Y5)
	CMAC(192, Y10, Y6)
	CMAC(224, Y11, Y7)
	CNEXT(cr64p)
	JMP cr64store
cr64m:
	CTERM
	CMMAC(0, Y8, Y9, Y0)
	CMMAC(32, Y10, Y11, Y1)
	CMMAC(64, Y12, Y13, Y2)
	CMMAC(96, Y8, Y9, Y3)
	CMMAC(128, Y10, Y11, Y4)
	CMMAC(160, Y12, Y13, Y5)
	CMMAC(192, Y8, Y9, Y6)
	CMMAC(224, Y10, Y11, Y7)
	CNEXT(cr64m)
cr64store:
	TESTQ DX, DX
	JEQ   cr64bias
	CACC(0, Y8, Y0)
	CACC(32, Y9, Y1)
	CACC(64, Y10, Y2)
	CACC(96, Y11, Y3)
	CACC(128, Y8, Y4)
	CACC(160, Y9, Y5)
	CACC(192, Y10, Y6)
	CACC(224, Y11, Y7)
	JMP   cr64put
cr64bias:
	VBROADCASTSS bias+100(FP), Y8
	CBIAS(Y0)
	CBIAS(Y1)
	CBIAS(Y2)
	CBIAS(Y3)
	CBIAS(Y4)
	CBIAS(Y5)
	CBIAS(Y6)
	CBIAS(Y7)
cr64put:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $64, CX
	JMP  cr64
cr32:
	CMPQ CX, $32
	JLT  cr8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CSTART(cr32store)
	TESTQ R13, R13
	JNE   cr32m
cr32p:
	CTERM
	CMAC(0, Y8, Y0)
	CMAC(32, Y9, Y1)
	CMAC(64, Y10, Y2)
	CMAC(96, Y11, Y3)
	CNEXT(cr32p)
	JMP cr32store
cr32m:
	CTERM
	CMMAC(0, Y8, Y9, Y0)
	CMMAC(32, Y10, Y11, Y1)
	CMMAC(64, Y12, Y13, Y2)
	CMMAC(96, Y8, Y9, Y3)
	CNEXT(cr32m)
cr32store:
	TESTQ DX, DX
	JEQ   cr32bias
	CACC(0, Y8, Y0)
	CACC(32, Y9, Y1)
	CACC(64, Y10, Y2)
	CACC(96, Y11, Y3)
	JMP   cr32put
cr32bias:
	VBROADCASTSS bias+100(FP), Y8
	CBIAS(Y0)
	CBIAS(Y1)
	CBIAS(Y2)
	CBIAS(Y3)
cr32put:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  cr32
cr8:
	CMPQ CX, $8
	JLT  crDone
	VXORPS Y0, Y0, Y0
	CSTART(cr8store)
	TESTQ R13, R13
	JNE   cr8m
cr8p:
	CTERM
	CMAC(0, Y8, Y0)
	CNEXT(cr8p)
	JMP cr8store
cr8m:
	CTERM
	CMMAC(0, Y8, Y9, Y0)
	CNEXT(cr8m)
cr8store:
	TESTQ DX, DX
	JEQ   cr8bias
	CACC(0, Y8, Y0)
	JMP   cr8put
cr8bias:
	VBROADCASTSS bias+100(FP), Y8
	CBIAS(Y0)
cr8put:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  cr8
crDone:
	VZEROUPPER
	RET

// CWMAC adds x[off]·g to eight sums, +0 in the lanes where g (Y8) is ±0.
#define CWMAC(off, tmp, acc) \
	VBROADCASTSS (SI)(off*4), tmp \
	VMULPS  Y8, tmp, tmp \
	VANDPS  Y9, tmp, tmp \
	VADDPS  tmp, acc, acc

// CWUMAC is CWMAC without the mask.
#define CWUMAC(off, tmp, acc) \
	VBROADCASTSS (SI)(off*4), tmp \
	VMULPS  Y8, tmp, tmp \
	VADDPS  tmp, acc, acc

// func convWeightAVX2(c []float32, cs int, x []float32, off []int32, g []float32, gs, oh, ow, wq int, mask bool)
// For i < 8 and j < 8: c[i·cs+j] += x[off[i]+oy·wq+ox]·g[(oy·ow+ox)·gs+j] over
// oy < oh and ox < ow ascending; with mask a lane whose g is ±0 adds +0. The
// 64 sums stay in registers; each g load feeds eight of them.
TEXT ·convWeightAVX2(SB), NOSPLIT, $0-137
	MOVQ off_base+56(FP), AX
	MOVLQSX 0(AX), R8
	MOVLQSX 4(AX), R9
	MOVLQSX 8(AX), R10
	MOVLQSX 12(AX), R11
	MOVLQSX 16(AX), R12
	MOVLQSX 20(AX), R13
	MOVLQSX 24(AX), R14
	MOVLQSX 28(AX), R15
	MOVQ c_base+0(FP), SI
	MOVQ cs+24(FP), CX
	SHLQ $2, CX
	VMOVUPS (SI), Y0
	ADDQ    CX, SI
	VMOVUPS (SI), Y1
	ADDQ    CX, SI
	VMOVUPS (SI), Y2
	ADDQ    CX, SI
	VMOVUPS (SI), Y3
	ADDQ    CX, SI
	VMOVUPS (SI), Y4
	ADDQ    CX, SI
	VMOVUPS (SI), Y5
	ADDQ    CX, SI
	VMOVUPS (SI), Y6
	ADDQ    CX, SI
	VMOVUPS (SI), Y7
	MOVQ x_base+32(FP), SI
	MOVQ g_base+80(FP), DX
	MOVQ gs+104(FP), BX
	SHLQ $2, BX
	MOVQ wq+128(FP), DI
	SUBQ ow+120(FP), DI
	SHLQ $2, DI
	VXORPS Y10, Y10, Y10
	MOVQ oh+112(FP), AX
	MOVQ ow+120(FP), CX
	TESTQ AX, AX
	JEQ   cwStore
	CMPB  mask+136(FP), $0
	JEQ   cwUnmasked
cwMasked:
	VMOVUPS (DX), Y8
	VCMPPS  $4, Y10, Y8, Y9
	CWMAC(R8, Y11, Y0)
	CWMAC(R9, Y12, Y1)
	CWMAC(R10, Y13, Y2)
	CWMAC(R11, Y14, Y3)
	CWMAC(R12, Y11, Y4)
	CWMAC(R13, Y12, Y5)
	CWMAC(R14, Y13, Y6)
	CWMAC(R15, Y14, Y7)
	ADDQ $4, SI
	ADDQ BX, DX
	DECQ CX
	JNE  cwMasked
	ADDQ DI, SI
	MOVQ ow+120(FP), CX
	DECQ AX
	JNE  cwMasked
	JMP cwStore
cwUnmasked:
	VMOVUPS (DX), Y8
	CWUMAC(R8, Y11, Y0)
	CWUMAC(R9, Y12, Y1)
	CWUMAC(R10, Y13, Y2)
	CWUMAC(R11, Y14, Y3)
	CWUMAC(R12, Y11, Y4)
	CWUMAC(R13, Y12, Y5)
	CWUMAC(R14, Y13, Y6)
	CWUMAC(R15, Y14, Y7)
	ADDQ $4, SI
	ADDQ BX, DX
	DECQ CX
	JNE  cwUnmasked
	ADDQ DI, SI
	MOVQ ow+120(FP), CX
	DECQ AX
	JNE  cwUnmasked
cwStore:
	MOVQ c_base+0(FP), DI
	MOVQ cs+24(FP), CX
	SHLQ $2, CX
	VMOVUPS Y0, (DI)
	ADDQ    CX, DI
	VMOVUPS Y1, (DI)
	ADDQ    CX, DI
	VMOVUPS Y2, (DI)
	ADDQ    CX, DI
	VMOVUPS Y3, (DI)
	ADDQ    CX, DI
	VMOVUPS Y4, (DI)
	ADDQ    CX, DI
	VMOVUPS Y5, (DI)
	ADDQ    CX, DI
	VMOVUPS Y6, (DI)
	ADDQ    CX, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func cpuHasFMA() bool
// The CPU has FMA3. With AVX (cpuHasAVX2), this is when amd64's math.Exp
// takes its VFMADD path.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX // FMA
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// The activation and BatchNorm lanes (activation.go; Go loops geluGo,
// reluGo, addReLUGo, reluGradGo, batchNormGo and batchNormGradGo). They take
// whole registers, as the elementwise kernels above do.

// func reluAVX2(y, x []float32)
// y[j] = x[j] > 0 ? x[j] : +0 for j < len(x) &^ 7. +0 is VMAXPS's second
// source, the operand it returns when x is ±0, negative or NaN.
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VXORPS Y0, Y0, Y0
relu8:
	CMPQ CX, $8
	JLT  reluDone
	VMOVUPS (SI), Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  relu8
reluDone:
	VZEROUPPER
	RET

// func addReLUAVX2(y, a, b []float32)
// y[j] = reluAVX2's map of a[j] + b[j] for j < len(a) &^ 7.
TEXT ·addReLUAVX2(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	VXORPS Y0, Y0, Y0
addReLU8:
	CMPQ CX, $8
	JLT  addReLUDone
	VMOVUPS (SI), Y1
	VADDPS  (BX), Y1, Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  addReLU8
addReLUDone:
	VZEROUPPER
	RET

// func reluGradAVX2(dx, y, g []float32)
// dx[j] = y[j] > 0 ? g[j] : +0 for j < len(y) &^ 7: an ordered greater-than
// (false for NaN), then the mask ANDed with g.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ dx_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	MOVQ y_len+32(FP), CX
	MOVQ g_base+48(FP), BX
	VXORPS Y0, Y0, Y0
reluGrad8:
	CMPQ CX, $8
	JLT  reluGradDone
	VMOVUPS (SI), Y1
	VCMPPS  $0x1e, Y0, Y1, Y1 // GT_OQ
	VANDPS  (BX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  reluGrad8
reluGradDone:
	VZEROUPPER
	RET

// func batchNormAVX2(xh, y, x []float32, mean, invStd float64, gamma, beta float32)
// xh[j] = float32((float64(x[j]) − mean)·invStd), then y[j] = gamma·xh[j] + beta,
// for j < len(x) &^ 3: a difference, a product and a conversion in float64,
// then a product and a sum in float32.
TEXT ·batchNormAVX2(SB), NOSPLIT, $0-96
	MOVQ xh_base+0(FP), DI
	MOVQ y_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD invStd+80(FP), Y1
	VBROADCASTSS gamma+88(FP), X2
	VBROADCASTSS beta+92(FP), X3
bn4:
	CMPQ CX, $4
	JLT  bnDone
	VCVTPS2PD  (SI), Y4
	VSUBPD     Y0, Y4, Y4
	VMULPD     Y1, Y4, Y4
	VCVTPD2PSY Y4, X4
	VMOVUPS    X4, (DI)
	VMULPS     X2, X4, X4
	VADDPS     X3, X4, X4
	VMOVUPS    X4, (DX)
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  bn4
bnDone:
	VZEROUPPER
	RET

// func batchNormGradAVX2(dx, dy, xh []float32, m, sumDy, sumDyXhat, scale float64)
// dx[j] = float32(scale·((m·dy[j] − sumDy) − xh[j]·sumDyXhat)) in float64,
// each product, difference and the conversion rounded on its own, for
// j < len(dy) &^ 3.
TEXT ·batchNormGradAVX2(SB), NOSPLIT, $0-104
	MOVQ dx_base+0(FP), DI
	MOVQ dy_base+24(FP), SI
	MOVQ dy_len+32(FP), CX
	MOVQ xh_base+48(FP), BX
	VBROADCASTSD m+72(FP), Y0
	VBROADCASTSD sumDy+80(FP), Y1
	VBROADCASTSD sumDyXhat+88(FP), Y2
	VBROADCASTSD scale+96(FP), Y3
bnGrad4:
	CMPQ CX, $4
	JLT  bnGradDone
	VCVTPS2PD  (SI), Y4
	VMULPD     Y0, Y4, Y4
	VSUBPD     Y1, Y4, Y4
	VCVTPS2PD  (BX), Y5
	VMULPD     Y2, Y5, Y5
	VSUBPD     Y5, Y4, Y4
	VMULPD     Y3, Y4, Y4
	VCVTPD2PSY Y4, X4
	VMOVUPS    X4, (DI)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  bnGrad4
bnGradDone:
	VZEROUPPER
	RET

// GELU's constants: its inner polynomial, math.Tanh's (tanh.go) and the
// FMA path of math.Exp on amd64 (exp_amd64.s), as float64 bits.
DATA geluk<>+0(SB)/8, $0x3fa6e4e26d4801f7   // 0.044715
DATA geluk<>+8(SB)/8, $0x3fe9884533d43651   // √(2/π)
DATA geluk<>+16(SB)/8, $0xbfeedc5baafd6f4b  // tanhP[0]
DATA geluk<>+24(SB)/8, $0xc058d26a0e26682d  // tanhP[1]
DATA geluk<>+32(SB)/8, $0xc0993ac030580563  // tanhP[2]
DATA geluk<>+40(SB)/8, $0x405c33f28a581b86  // tanhQ[0]
DATA geluk<>+48(SB)/8, $0x40a176fa0e5535fa  // tanhQ[1]
DATA geluk<>+56(SB)/8, $0x40b2ec102442040c  // tanhQ[2]
DATA geluk<>+64(SB)/8, $0x404601e678fc457b  // MAXLOG/2
DATA geluk<>+72(SB)/8, $0x3fe4000000000000  // 0.625
DATA geluk<>+80(SB)/8, $0x3ff71547652b82fe  // LOG2E
DATA geluk<>+88(SB)/8, $0x3fe62e42fefa3000  // LN2U
DATA geluk<>+96(SB)/8, $0x3d53de6af278ece6  // LN2L
DATA geluk<>+104(SB)/8, $0x3fb0000000000000 // 1/16
DATA geluk<>+112(SB)/8, $0x3efa01a01a01a01a // 1/8!
DATA geluk<>+120(SB)/8, $0x3f2a01a01a01a01a // 1/7!
DATA geluk<>+128(SB)/8, $0x3f56c16c16c16c17 // 1/6!
DATA geluk<>+136(SB)/8, $0x3f81111111111111 // 1/5!
DATA geluk<>+144(SB)/8, $0x3fa5555555555555 // 1/4!
DATA geluk<>+152(SB)/8, $0x3fc5555555555555 // 1/3!
DATA geluk<>+160(SB)/8, $0x3fe0000000000000 // 0.5
DATA geluk<>+168(SB)/8, $0x3ff0000000000000 // 1
DATA geluk<>+176(SB)/8, $0x4000000000000000 // 2
DATA geluk<>+184(SB)/8, $0x8000000000000000 // the sign bit
DATA geluk<>+192(SB)/8, $0x00000000000003ff // the exponent bias
GLOBL geluk<>(SB), RODATA|NOPTR, $200

// GK broadcasts GELU constant off into reg.
#define GK(off, reg) VBROADCASTSD geluk<>+off(SB), reg

// func geluAVX2(y, x []float32, t []float64)
// For j < len(x) &^ 3, with v = float64(x[j]) and u = √(2/π)·(v + 0.044715·v·v·v):
// t[j] = math.Tanh(u) when t is not empty, and y[j] = float32(0.5·v·(1 + tanh u)).
// Each lane takes each of Tanh's three branches and keeps one: ±1 for
// |u| > MAXLOG/2; 1 − 2/(e^{2|u|} + 1) with u's sign for |u| ≥ 0.625, the
// exponential computed as math.Exp's FMA path computes it; otherwise the
// rational polynomial, or u itself when u is ±0. Every other operation is
// the Go loop's, in its order.
TEXT ·geluAVX2(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ t_base+48(FP), BX
	MOVQ t_len+56(FP), DX
	GK(184, Y15)
	GK(168, Y14)
	GK(176, Y13)
	VPBROADCASTQ geluk<>+192(SB), Y12
	VXORPD Y11, Y11, Y11
gelu4:
	CMPQ CX, $4
	JLT  geluDone
	// u = √(2/π)·(v + ((0.044715·v)·v)·v) in Y1, |u| in Y2, u's sign in Y3.
	VCVTPS2PD (SI), Y0
	GK(0, Y1)
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  Y1, Y0, Y1
	GK(8, Y2)
	VMULPD  Y2, Y1, Y1
	VANDNPD Y1, Y15, Y2
	VANDPD  Y15, Y1, Y3

	// e = math.Exp(2|u|) in Y4: n = round(LOG2E·a) as int32 in X5; a
	// reduced by n·LN2U and n·LN2L, each fused; a/16; the Taylor chain as
	// seven fused steps; three squarings a·(a+2) and a fourth fused with
	// the final +1; then ·2ⁿ by exponent bits.
	VADDPD      Y2, Y2, Y4
	GK(80, Y5)
	VMULPD      Y4, Y5, Y5
	VCVTPD2DQY  Y5, X5
	VCVTDQ2PD   X5, Y6
	GK(88, Y7)
	VFNMADD231PD Y7, Y6, Y4
	GK(96, Y7)
	VFNMADD231PD Y7, Y6, Y4
	GK(104, Y7)
	VMULPD      Y7, Y4, Y4
	GK(112, Y6)
	GK(120, Y7)
	VFMADD213PD Y7, Y4, Y6
	GK(128, Y7)
	VFMADD213PD Y7, Y4, Y6
	GK(136, Y7)
	VFMADD213PD Y7, Y4, Y6
	GK(144, Y7)
	VFMADD213PD Y7, Y4, Y6
	GK(152, Y7)
	VFMADD213PD Y7, Y4, Y6
	GK(160, Y7)
	VFMADD213PD Y7, Y4, Y6
	VFMADD213PD Y14, Y4, Y6
	VMULPD      Y6, Y4, Y4
	VADDPD      Y13, Y4, Y6
	VMULPD      Y6, Y4, Y4
	VADDPD      Y13, Y4, Y6
	VMULPD      Y6, Y4, Y4
	VADDPD      Y13, Y4, Y6
	VMULPD      Y6, Y4, Y4
	VADDPD      Y13, Y4, Y6
	VFMADD213PD Y14, Y6, Y4
	VPMOVSXDQ   X5, Y5
	VPADDQ      Y12, Y5, Y5
	VPSLLQ      $52, Y5, Y5
	VMULPD      Y5, Y4, Y4

	// The middle branch in Y4: 1 − 2/(e + 1), u's sign put back.
	VADDPD Y14, Y4, Y4
	VDIVPD Y4, Y13, Y4
	VSUBPD Y4, Y14, Y4
	VORPD  Y3, Y4, Y4

	// The polynomial branch in Y5: s = u·u, then
	// u + u·s·((P0·s + P1)·s + P2) / (((s + Q0)·s + Q1)·s + Q2).
	VMULPD Y1, Y1, Y5
	GK(16, Y6)
	VMULPD Y5, Y6, Y6
	GK(24, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	GK(32, Y7)
	VADDPD Y7, Y6, Y6
	GK(40, Y7)
	VADDPD Y7, Y5, Y7
	VMULPD Y5, Y7, Y7
	GK(48, Y8)
	VADDPD Y8, Y7, Y7
	VMULPD Y5, Y7, Y7
	GK(56, Y8)
	VADDPD Y8, Y7, Y7
	VMULPD Y5, Y1, Y5
	VMULPD Y6, Y5, Y5
	VDIVPD Y7, Y5, Y5
	VADDPD Y5, Y1, Y5

	// tanh u in Y5: the middle branch where |u| ≥ 0.625, ±1 where
	// |u| > MAXLOG/2, u where u is ±0 (ordered compares: a NaN keeps the
	// polynomial's NaN).
	GK(72, Y6)
	VCMPPD    $0x1d, Y6, Y2, Y6 // GE_OQ
	VBLENDVPD Y6, Y4, Y5, Y5
	GK(64, Y6)
	VCMPPD    $0x1e, Y6, Y2, Y6 // GT_OQ
	VORPD     Y3, Y14, Y7
	VBLENDVPD Y6, Y7, Y5, Y5
	VCMPPD    $0x00, Y11, Y1, Y6 // EQ_OQ
	VBLENDVPD Y6, Y1, Y5, Y5

	// y = float32((0.5·v)·(1 + tanh u)).
	GK(160, Y6)
	VMULPD     Y6, Y0, Y0
	VADDPD     Y14, Y5, Y6
	VMULPD     Y6, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	TESTQ DX, DX
	JEQ   gelu4next
	VMOVUPD Y5, (BX)
	ADDQ $32, BX
gelu4next:
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  gelu4
geluDone:
	VZEROUPPER
	RET
