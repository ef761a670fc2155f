//go:build amd64 && !km_purego

#include "textflag.h"

// AVX2+FMA float32 row dot kernel — the top rung of the kernel tier
// ladder (f32tier.go), used only when cpu_amd64.go detects AVX2, FMA, and
// OS-enabled YMM state. The rung's tile runs panelNearestF32
// (panel_amd64.s); this kernel serves its row distances (expandRow), and
// its per-pair order is the one the panel kernel replays. It processes 8
// coordinates per iteration with fused multiply-adds, keeps one 8-lane
// accumulator per (point, center) pair, folds the high 128-bit half onto
// the low half, feeds the scalar tail into lane 0 (also fused), and
// reduces the 4 remaining lanes as [1,0,3,2] fold then [2,3,0,1] fold — so
// each result is a fixed function of the dimension, independent of tiling
// and worker count.

// func dot1x4f32avx(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32)
TEXT ·dot1x4f32avx(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ c0_base+24(FP), R8
	MOVQ c1_base+48(FP), R9
	MOVQ c2_base+72(FP), R10
	MOVQ c3_base+96(FP), R11

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ DX, $0
	JE   fold1avx

loop1x4avx:
	VMOVUPS (SI)(AX*4), Y8

	VMOVUPS     (R8)(AX*4), Y10
	VFMADD231PS Y10, Y8, Y0

	VMOVUPS     (R9)(AX*4), Y10
	VFMADD231PS Y10, Y8, Y1

	VMOVUPS     (R10)(AX*4), Y10
	VFMADD231PS Y10, Y8, Y2

	VMOVUPS     (R11)(AX*4), Y10
	VFMADD231PS Y10, Y8, Y3

	ADDQ $8, AX
	CMPQ AX, DX
	JL   loop1x4avx

fold1avx:
	VEXTRACTF128 $1, Y0, X10
	VADDPS       X10, X0, X0
	VEXTRACTF128 $1, Y1, X10
	VADDPS       X10, X1, X1
	VEXTRACTF128 $1, Y2, X10
	VADDPS       X10, X2, X2
	VEXTRACTF128 $1, Y3, X10
	VADDPS       X10, X3, X3
	VZEROUPPER

	CMPQ AX, CX
	JGE  reduce1avx

tail1avx:
	VMOVSS (SI)(AX*4), X8

	VMOVSS      (R8)(AX*4), X10
	VFMADD231SS X10, X8, X0

	VMOVSS      (R9)(AX*4), X10
	VFMADD231SS X10, X8, X1

	VMOVSS      (R10)(AX*4), X10
	VFMADD231SS X10, X8, X2

	VMOVSS      (R11)(AX*4), X10
	VFMADD231SS X10, X8, X3

	INCQ AX
	CMPQ AX, CX
	JL   tail1avx

reduce1avx:
	MOVAPS X0, X12
	SHUFPS $0xB1, X12, X12
	ADDPS  X12, X0
	MOVAPS X0, X12
	SHUFPS $0x4E, X12, X12
	ADDSS  X12, X0
	MOVSS  X0, a0+120(FP)

	MOVAPS X1, X12
	SHUFPS $0xB1, X12, X12
	ADDPS  X12, X1
	MOVAPS X1, X12
	SHUFPS $0x4E, X12, X12
	ADDSS  X12, X1
	MOVSS  X1, a1+124(FP)

	MOVAPS X2, X12
	SHUFPS $0xB1, X12, X12
	ADDPS  X12, X2
	MOVAPS X2, X12
	SHUFPS $0x4E, X12, X12
	ADDSS  X12, X2
	MOVSS  X2, a2+128(FP)

	MOVAPS X3, X12
	SHUFPS $0xB1, X12, X12
	ADDPS  X12, X3
	MOVAPS X3, X12
	SHUFPS $0x4E, X12, X12
	ADDSS  X12, X3
	MOVSS  X3, a3+132(FP)
	RET
