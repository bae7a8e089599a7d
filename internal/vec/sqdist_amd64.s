#include "textflag.h"

// func hasAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0
// must show the OS saving the SSE (bit 1) and AVX (bit 2) register state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// STEP adds four squared differences, a[i+off:i+off+4] against b's, into
// the lane sums Y3: widen both operands, subtract, square, add. Each is
// its own rounding, as in the scalar loop; no fused multiply-add.
#define STEP(off) \
	VCVTPS2PD off(SI)(AX*4), Y0; \
	VCVTPS2PD off(DI)(AX*4), Y1; \
	VSUBPD    Y1, Y0, Y0;        \
	VMULPD    Y0, Y0, Y0;        \
	VADDPD    Y0, Y3, Y3

// func sqDistLanes(a, b []float32, limit float64) (s0, s1, s2, s3 float64, abandoned bool)
//
// Lane k of Y3 is the scalar loop's s_k. Every 16 floats the partial sum
// (s0+s1)+(s2+s3) is compared with limit, strictly and ordered, so a
// NaN never abandons; the 4-float steps after the last whole block run
// unchecked, and the len%4 tail is the caller's.
TEXT ·sqDistLanes(SB), NOSPLIT, $0-89
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VMOVSD limit+48(FP), X7
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $~15, BX
	JZ     steps

block:
	STEP(0)
	STEP(16)
	STEP(32)
	STEP(48)
	ADDQ         $16, AX
	VEXTRACTF128 $1, Y3, X4
	VHADDPD      X4, X3, X5
	VPERMILPD    $1, X5, X6
	VADDSD       X6, X5, X5
	VUCOMISD     X7, X5
	JA           abandon
	CMPQ         AX, BX
	JLT          block

steps:
	ANDQ $~3, CX
	CMPQ AX, CX
	JGE  done

step:
	STEP(0)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  step

done:
	MOVB $0, abandoned+88(FP)
	JMP  store

abandon:
	MOVB $1, abandoned+88(FP)

// store writes lane k of Y3 to s_k, one float64 each.
store:
	VMOVSD       X3, s0+56(FP)
	VPERMILPD    $1, X3, X4
	VMOVSD       X4, s1+64(FP)
	VEXTRACTF128 $1, Y3, X5
	VMOVSD       X5, s2+72(FP)
	VPERMILPD    $1, X5, X6
	VMOVSD       X6, s3+80(FP)
	VZEROUPPER
	RET
