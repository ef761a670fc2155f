//go:build amd64 && !km_purego

#include "textflag.h"

// AVX-512 panel kernels: panel_amd64.s's kernels at twice the lane width,
// 8 float64 or 16 float32 points per ZMM register. The layout, the
// clamped expansion and the argmin rule are the AVX2 rung's, and each lane
// replays the same per-pair arithmetic, so both rungs and the Go tile agree
// bit for bit:
//
//   - panelNearestF64AVX512: one sequential multiply-then-add chain per
//     pair (VMULPD, VADDPD — never FMA);
//   - panelNearestF32AVX512: dot1x4f32avx's order for a tile's full groups
//     of four centers, dotWide's for its tail centers.
//
// The running best is kept with VMINPD/VMINPS, the new value as the first
// source and the best as the second, so ties, −0 against +0 and NaN keep
// the best; the index is blended under the VCMPPD/VCMPPS LT_OQ opmask of
// the same comparison. Only AVX-512F instructions are used on ZMM
// registers; the packers build their 8-lane offset vectors with AVX2.

// UPDATE64Z folds the eight float64 dots in acc (pair dots of center
// cNorms[off/8]) into the running best (Z14) and index (Z13) lanes. Z15
// holds the point norms, Z12 the center index, Z11 ones, Z10 zero.
#define UPDATE64Z(acc, off) \
	VADDPD.BCST off(R9), Z15, Z5;  \
	VADDPD      acc, acc, Z6;      \
	VSUBPD      Z6, Z5, Z5;        \
	VMAXPD      Z5, Z10, Z5;       \
	VCMPPD      $0x11, Z14, Z5, K1; \
	VMINPD      Z14, Z5, Z14;      \
	VMOVDQA64   Z12, K1, Z13;      \
	VPADDQ      Z11, Z12, Z12

// UPDATE32Z is UPDATE64Z for sixteen float32 lanes and 32-bit index
// lanes: best in Z30, index in Z29, point norms in Z31, center index in
// Z28, ones in Z27, zero in Z26.
#define UPDATE32Z(acc, off) \
	VADDPS.BCST off(R9), Z31, Z24;  \
	VADDPS      acc, acc, Z25;      \
	VSUBPS      Z25, Z24, Z24;      \
	VMAXPS      Z24, Z26, Z24;      \
	VCMPPS      $0x11, Z30, Z24, K1; \
	VMINPS      Z30, Z24, Z30;      \
	VMOVDQA32   Z28, K1, Z29;       \
	VPADDD      Z27, Z28, Z28

// CHAIN32Z runs residue chain l of one 8-coordinate block for a group of
// four centers (rows R8, R12, R13, R10): po is the panel byte offset of
// coordinate l, co its center offset; the four chains accumulate in
// a0–a3.
#define CHAIN32Z(po, co, a0, a1, a2, a3) \
	VMOVUPS          po(DI), Z20;          \
	VFMADD231PS.BCST co(R8)(AX*4), Z20, a0;  \
	VFMADD231PS.BCST co(R12)(AX*4), Z20, a1; \
	VFMADD231PS.BCST co(R13)(AX*4), Z20, a2; \
	VFMADD231PS.BCST co(R10)(AX*4), Z20, a3

// ZERO16 clears the sixteen chain accumulators of a pass.
#define ZERO16 \
	VPXORD Z0, Z0, Z0;    \
	VPXORD Z1, Z1, Z1;    \
	VPXORD Z2, Z2, Z2;    \
	VPXORD Z3, Z3, Z3;    \
	VPXORD Z4, Z4, Z4;    \
	VPXORD Z5, Z5, Z5;    \
	VPXORD Z6, Z6, Z6;    \
	VPXORD Z7, Z7, Z7;    \
	VPXORD Z8, Z8, Z8;    \
	VPXORD Z9, Z9, Z9;    \
	VPXORD Z10, Z10, Z10; \
	VPXORD Z11, Z11, Z11; \
	VPXORD Z12, Z12, Z12; \
	VPXORD Z13, Z13, Z13; \
	VPXORD Z14, Z14, Z14; \
	VPXORD Z15, Z15, Z15

// FOLD32Z forms t_l = s_l + s_{l+4} in Z0–Z3 (chains l in Z0–Z3, l+4 in
// Z4–Z7) and t_m = s_m + s_{m+4} in Z8–Z11 (chains m in Z8–Z11, m+4 in
// Z12–Z15).
#define FOLD32Z \
	VADDPS Z4, Z0, Z0;    \
	VADDPS Z5, Z1, Z1;    \
	VADDPS Z6, Z2, Z2;    \
	VADDPS Z7, Z3, Z3;    \
	VADDPS Z12, Z8, Z8;   \
	VADDPS Z13, Z9, Z9;   \
	VADDPS Z14, Z10, Z10; \
	VADDPS Z15, Z11, Z11

// SUM32Z adds Z8–Z11 into Z0–Z3.
#define SUM32Z \
	VADDPS Z8, Z0, Z0;  \
	VADDPS Z9, Z1, Z1;  \
	VADDPS Z10, Z2, Z2; \
	VADDPS Z11, Z3, Z3

// func panelNearestF64AVX512(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int)
TEXT ·panelNearestF64AVX512(SB), NOSPLIT, $0-160
	MOVQ panel_base+0(FP), SI
	MOVQ pn_base+24(FP), AX
	MOVQ centers_base+48(FP), R8
	MOVQ cNorms_base+72(FP), R9
	MOVQ cNorms_len+80(FP), CX
	MOVQ best_base+96(FP), R10
	MOVQ idx_base+120(FP), R11
	MOVQ d+144(FP), DX
	MOVQ c0+152(FP), BX

	VMOVUPD      (AX), Z15  // point norms
	VMOVUPD      (R10), Z14 // best distances
	VPMOVZXDQ    (R11), Z13 // best indices, widened to 64-bit lanes
	VPBROADCASTQ BX, Z12    // current center index
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z11
	VPXORQ       Z10, Z10, Z10

	MOVQ DX, BX
	SHLQ $3, BX // center row stride in bytes

	CMPQ CX, $4
	JL   tail64

group64:
	LEAQ   (R8)(BX*1), R12
	LEAQ   (R12)(BX*1), R13
	LEAQ   (R13)(BX*1), R10
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   AX, AX
	MOVQ   SI, DI
	TESTQ  DX, DX
	JZ     update64

dots64:
	VMOVUPD     (DI), Z4
	VMULPD.BCST (R8)(AX*8), Z4, Z5
	VADDPD      Z5, Z0, Z0
	VMULPD.BCST (R12)(AX*8), Z4, Z6
	VADDPD      Z6, Z1, Z1
	VMULPD.BCST (R13)(AX*8), Z4, Z7
	VADDPD      Z7, Z2, Z2
	VMULPD.BCST (R10)(AX*8), Z4, Z8
	VADDPD      Z8, Z3, Z3
	ADDQ        $64, DI
	INCQ        AX
	CMPQ        AX, DX
	JL          dots64

update64:
	UPDATE64Z(Z0, 0)
	UPDATE64Z(Z1, 8)
	UPDATE64Z(Z2, 16)
	UPDATE64Z(Z3, 24)
	LEAQ (R10)(BX*1), R8
	ADDQ $32, R9
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  group64

tail64:
	TESTQ CX, CX
	JZ    done64

tailc64:
	VPXORQ Z0, Z0, Z0
	XORQ   AX, AX
	MOVQ   SI, DI
	TESTQ  DX, DX
	JZ     tailupd64

taild64:
	VMOVUPD     (DI), Z4
	VMULPD.BCST (R8)(AX*8), Z4, Z5
	VADDPD      Z5, Z0, Z0
	ADDQ        $64, DI
	INCQ        AX
	CMPQ        AX, DX
	JL          taild64

tailupd64:
	UPDATE64Z(Z0, 0)
	ADDQ BX, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  tailc64

done64:
	MOVQ    best_base+96(FP), R10
	MOVQ    idx_base+120(FP), R11
	VMOVUPD Z14, (R10)
	VPMOVQD Z13, (R11) // low dword of each 64-bit index lane
	VZEROUPPER
	RET

// func panelNearestF32AVX512(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int)
//
// A group of four centers takes two passes over the panel: chains 0, 4,
// 1 and 5, then 2, 6, 3 and 7, sixteen accumulators each. The d mod 8 tail
// is fused into t_0 between the first pass's fold and t_0 + t_1, which
// waits in Z16–Z19 through the second pass.
TEXT ·panelNearestF32AVX512(SB), NOSPLIT, $0-160
	MOVQ panel_base+0(FP), SI
	MOVQ pn_base+24(FP), AX
	MOVQ centers_base+48(FP), R8
	MOVQ cNorms_base+72(FP), R9
	MOVQ cNorms_len+80(FP), CX
	MOVQ best_base+96(FP), R10
	MOVQ idx_base+120(FP), R11
	MOVQ d+144(FP), DX
	MOVQ c0+152(FP), BX

	VMOVUPS      (AX), Z31   // point norms
	VMOVUPS      (R10), Z30  // best distances
	VMOVDQU32    (R11), Z29  // best indices
	VPBROADCASTD BX, Z28     // current center index
	MOVL         $1, AX
	VPBROADCASTD AX, Z27
	VPXORD       Z26, Z26, Z26

	MOVQ DX, BX
	SHLQ $2, BX   // center row stride in bytes
	MOVQ DX, R11
	ANDQ $-8, R11 // coordinates covered by whole 8-blocks

	CMPQ CX, $4
	JL   tail32

group32:
	LEAQ (R8)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R10

	// Chains 0, 4, 1 and 5; the d mod 8 tail fused into t_0; then
	// u = t_0 + t_1 to Z16–Z19.
	ZERO16
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold01

pass01:
	CHAIN32Z(0, 0, Z0, Z1, Z2, Z3)
	CHAIN32Z(256, 16, Z4, Z5, Z6, Z7)
	CHAIN32Z(64, 4, Z8, Z9, Z10, Z11)
	CHAIN32Z(320, 20, Z12, Z13, Z14, Z15)
	ADDQ $512, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass01

fold01:
	FOLD32Z
	CMPQ AX, DX
	JGE  keep01

tail01:
	CHAIN32Z(0, 0, Z0, Z1, Z2, Z3)
	ADDQ $64, DI
	INCQ AX
	CMPQ AX, DX
	JL   tail01

keep01:
	VADDPS Z8, Z0, Z16
	VADDPS Z9, Z1, Z17
	VADDPS Z10, Z2, Z18
	VADDPS Z11, Z3, Z19

	// Chains 2, 6, 3 and 7, then dot = (t_0 + t_1) + (t_2 + t_3).
	ZERO16
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold23

pass23:
	CHAIN32Z(128, 8, Z0, Z1, Z2, Z3)
	CHAIN32Z(384, 24, Z4, Z5, Z6, Z7)
	CHAIN32Z(192, 12, Z8, Z9, Z10, Z11)
	CHAIN32Z(448, 28, Z12, Z13, Z14, Z15)
	ADDQ $512, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass23

fold23:
	FOLD32Z
	SUM32Z
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z1, Z1
	VADDPS Z18, Z2, Z2
	VADDPS Z19, Z3, Z3

	UPDATE32Z(Z0, 0)
	UPDATE32Z(Z1, 4)
	UPDATE32Z(Z2, 8)
	UPDATE32Z(Z3, 12)

	LEAQ (R10)(BX*1), R8
	ADDQ $16, R9
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  group32

tail32:
	TESTQ CX, CX
	JZ    done32
	MOVQ  DX, R12
	ANDQ  $-4, R12 // coordinates covered by whole 4-blocks

tailc32:
	// dotWide: four multiply-then-add chains, the d mod 4 tail into s_0,
	// then (s_0 + s_1) + (s_2 + s_3).
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ   AX, AX
	MOVQ   SI, DI
	CMPQ   R12, $0
	JE     tailrem32

tail4x32:
	VMOVUPS     (DI), Z20
	VMULPS.BCST (R8)(AX*4), Z20, Z21
	VADDPS      Z21, Z0, Z0
	VMOVUPS     64(DI), Z20
	VMULPS.BCST 4(R8)(AX*4), Z20, Z21
	VADDPS      Z21, Z1, Z1
	VMOVUPS     128(DI), Z20
	VMULPS.BCST 8(R8)(AX*4), Z20, Z21
	VADDPS      Z21, Z2, Z2
	VMOVUPS     192(DI), Z20
	VMULPS.BCST 12(R8)(AX*4), Z20, Z21
	VADDPS      Z21, Z3, Z3
	ADDQ        $256, DI
	ADDQ        $4, AX
	CMPQ        AX, R12
	JL          tail4x32

tailrem32:
	CMPQ AX, DX
	JGE  tailsum32

tail1x32:
	VMOVUPS     (DI), Z20
	VMULPS.BCST (R8)(AX*4), Z20, Z21
	VADDPS      Z21, Z0, Z0
	ADDQ        $64, DI
	INCQ        AX
	CMPQ        AX, DX
	JL          tail1x32

tailsum32:
	VADDPS Z1, Z0, Z0
	VADDPS Z3, Z2, Z2
	VADDPS Z2, Z0, Z0

	UPDATE32Z(Z0, 0)

	ADDQ BX, R8
	ADDQ $4, R9
	DECQ CX
	JNZ  tailc32

done32:
	MOVQ      best_base+96(FP), R10
	MOVQ      idx_base+120(FP), R11
	VMOVUPS   Z30, (R10)
	VMOVDQU32 Z29, (R11)
	VZEROUPPER
	RET

// func packPanelsF64AVX512(dst, pn, src []float64, rows, d int)
//
// packPanelsF64 for 8-point panels: one pass per panel gathers
// coordinate j of its 8 rows into dst and folds it into each lane's norm
// chain (sqNormSeq's order). Lanes past rows are masked off and stay zero.
TEXT ·packPanelsF64AVX512(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ rows+72(FP), CX
	MOVQ d+80(FP), DX

	VMOVQ        DX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      ·panelLanesD(SB), Y15
	VPMULLD      Y14, Y15, Y15 // row offsets l·d
	MOVQ         DX, R10
	SHLQ         $6, R10       // src bytes per panel: 8 rows × d × 8

pack64:
	VPBROADCASTQ CX, Z13
	VPCMPGTQ     ·panelLanesQ(SB), Z13, K2 // live lanes: l < rows left
	VPXORQ       Z0, Z0, Z0
	XORQ         AX, AX
	MOVQ         SI, BX
	TESTQ        DX, DX
	JZ           norm64

coord64:
	KMOVW      K2, K1
	VPXORQ     Z4, Z4, Z4
	VGATHERDPD (BX)(Y15*8), K1, Z4
	VMOVUPD    Z4, (DI)
	VMULPD     Z4, Z4, Z5
	VADDPD     Z5, Z0, Z0
	ADDQ       $8, BX
	ADDQ       $64, DI
	INCQ       AX
	CMPQ       AX, DX
	JL         coord64

norm64:
	VMOVUPD Z0, (R8)
	ADDQ    $64, R8
	ADDQ    R10, SI
	SUBQ    $8, CX
	JG      pack64
	VZEROUPPER
	RET

// GATHER32Z gathers coordinate j of the panel's sixteen rows (Z15 row
// offsets, K2 live-lane mask) to dst and folds it into norm chain.
#define GATHER32Z(chain) \
	KMOVW      K2, K1;                \
	VPXORD     Z4, Z4, Z4;            \
	VGATHERDPS (BX)(Z15*4), K1, Z4;   \
	VMOVUPS    Z4, (DI);              \
	VMULPS     Z4, Z4, Z5;            \
	VADDPS     Z5, chain, chain;      \
	ADDQ       $4, BX;                \
	ADDQ       $64, DI

// func packPanelsF32AVX512(dst, pn, src []float32, rows, d int)
//
// packPanelsF64AVX512 for 16-point float32 panels, with the norms in
// sqNormWide's order: four multiply-then-add chains over the whole
// 4-blocks, the d mod 4 tail into chain 0, then (s0 + s1) + (s2 + s3).
TEXT ·packPanelsF32AVX512(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ rows+72(FP), CX
	MOVQ d+80(FP), DX

	VPBROADCASTD DX, Z14
	VMOVDQU32    ·panelLanesD(SB), Z15
	VPMULLD      Z14, Z15, Z15 // row offsets l·d
	MOVQ         DX, R9
	ANDQ         $-4, R9       // coordinates covered by whole 4-blocks
	MOVQ         DX, R10
	SHLQ         $6, R10       // src bytes per panel: 16 rows × d × 4

pack32:
	VPBROADCASTD CX, Z13
	VPCMPGTD     ·panelLanesD(SB), Z13, K2 // live lanes: l < rows left
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	VPXORD       Z2, Z2, Z2
	VPXORD       Z3, Z3, Z3
	XORQ         AX, AX
	MOVQ         SI, BX
	CMPQ         R9, $0
	JE           tail32p

block32p:
	GATHER32Z(Z0)
	GATHER32Z(Z1)
	GATHER32Z(Z2)
	GATHER32Z(Z3)
	ADDQ $4, AX
	CMPQ AX, R9
	JL   block32p

tail32p:
	CMPQ AX, DX
	JGE  norm32

tailc32p:
	GATHER32Z(Z0)
	INCQ AX
	CMPQ AX, DX
	JL   tailc32p

norm32:
	VADDPS  Z1, Z0, Z0
	VADDPS  Z3, Z2, Z2
	VADDPS  Z2, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    $64, R8
	ADDQ    R10, SI
	SUBQ    $16, CX
	JG      pack32
	VZEROUPPER
	RET

// func packRowsF64AVX512(dst, pn []float64, rows [][]float64, d int)
//
// packPanelsF64AVX512 with the points held as one slice per row: each
// panel's eight row pointers are gathered from the slice headers, then
// coordinate j of the eight rows is gathered straight from them.
TEXT ·packRowsF64AVX512(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    pn_base+24(FP), R8
	MOVQ    rows_base+48(FP), SI
	MOVQ    rows_len+56(FP), CX
	MOVQ    d+72(FP), DX
	VMOVDQU ·panelHeaders(SB), Y14

rowsPanel64:
	VPBROADCASTQ CX, Z13
	VPCMPGTQ     ·panelLanesQ(SB), Z13, K2 // live lanes: l < rows left
	KMOVW        K2, K1
	VPXORQ       Z15, Z15, Z15
	VPGATHERDQ   (SI)(Y14*1), K1, Z15    // row data pointers
	VPXORQ       Z0, Z0, Z0
	XORQ         AX, AX
	XORQ         BX, BX
	TESTQ        DX, DX
	JZ           rowsNorm64

rowsCoord64:
	KMOVW      K2, K1
	VPXORQ     Z4, Z4, Z4
	VGATHERQPD (BX)(Z15*1), K1, Z4
	VMOVUPD    Z4, (DI)
	VMULPD     Z4, Z4, Z5
	VADDPD     Z5, Z0, Z0
	ADDQ       $8, BX
	ADDQ       $64, DI
	INCQ       AX
	CMPQ       AX, DX
	JL         rowsCoord64

rowsNorm64:
	VMOVUPD Z0, (R8)
	ADDQ    $64, R8
	ADDQ    $192, SI
	SUBQ    $8, CX
	JG      rowsPanel64
	VZEROUPPER
	RET

// ROWS32Z gathers coordinate j (byte offset BX) of the panel's sixteen
// float64 rows (data pointers in Z15 and Z14, live-lane masks in K2 and
// K3), narrows them to float32 into dst and folds them into norm chain.
#define ROWS32Z(chain) \
	KMOVW        K2, K1;              \
	VPXORQ       Z4, Z4, Z4;          \
	VGATHERQPD   (BX)(Z15*1), K1, Z4; \
	KMOVW        K3, K1;              \
	VPXORQ       Z5, Z5, Z5;          \
	VGATHERQPD   (BX)(Z14*1), K1, Z5; \
	VCVTPD2PS    Z4, Y4;              \
	VCVTPD2PS    Z5, Y5;              \
	VINSERTF64X4 $1, Y5, Z4, Z4;      \
	VMOVUPS      Z4, (DI);            \
	VMULPS       Z4, Z4, Z6;          \
	VADDPS       Z6, chain, chain;    \
	ADDQ         $8, BX;              \
	ADDQ         $64, DI

// func packRowsF32AVX512(dst, pn []float32, rows [][]float64, d int)
//
// packRowsF64AVX512 for 16-point float32 panels: the gathered float64
// coordinates are narrowed (VCVTPD2PS, round to nearest, as narrow32
// rounds) before they are stored and folded into sqNormWide's chains.
TEXT ·packRowsF32AVX512(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    pn_base+24(FP), R8
	MOVQ    rows_base+48(FP), SI
	MOVQ    rows_len+56(FP), CX
	MOVQ    d+72(FP), DX
	VMOVDQU ·panelHeaders(SB), Y13
	MOVQ    DX, R9
	ANDQ    $-4, R9 // coordinates covered by whole 4-blocks

rowsPanel32:
	VPBROADCASTQ CX, Z11
	VPCMPGTQ     ·panelLanesQ(SB), Z11, K2    // live lanes 0–7
	VPCMPGTQ     ·panelLanesQ+64(SB), Z11, K3 // live lanes 8–15
	KMOVW        K2, K1
	VPXORQ       Z15, Z15, Z15
	VPGATHERDQ   (SI)(Y13*1), K1, Z15       // row data pointers, lanes 0–7
	KMOVW        K3, K1
	VPXORQ       Z14, Z14, Z14
	VPGATHERDQ   192(SI)(Y13*1), K1, Z14    // lanes 8–15
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	VPXORD       Z2, Z2, Z2
	VPXORD       Z3, Z3, Z3
	XORQ         AX, AX
	XORQ         BX, BX
	CMPQ         R9, $0
	JE           rowsTail32

rowsBlock32:
	ROWS32Z(Z0)
	ROWS32Z(Z1)
	ROWS32Z(Z2)
	ROWS32Z(Z3)
	ADDQ $4, AX
	CMPQ AX, R9
	JL   rowsBlock32

rowsTail32:
	CMPQ AX, DX
	JGE  rowsNorm32

rowsTailc32:
	ROWS32Z(Z0)
	INCQ AX
	CMPQ AX, DX
	JL   rowsTailc32

rowsNorm32:
	VADDPS  Z1, Z0, Z0
	VADDPS  Z3, Z2, Z2
	VADDPS  Z2, Z0, Z0
	VMOVUPS Z0, (R8)
	ADDQ    $64, R8
	ADDQ    $384, SI
	SUBQ    $16, CX
	JG      rowsPanel32
	VZEROUPPER
	RET
