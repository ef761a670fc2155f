//go:build amd64 && !km_purego

#include "textflag.h"

// AVX2 panel kernels for the blocked engine's nearest-center tile
// (blocked.go). A panel is a lane-width group of points stored
// coordinate-major: panel[j*L + l] is coordinate j of point l, L = 4
// float64 or 8 float32 lanes, so one vector load fetches one coordinate of
// every point in the panel. One call runs a panel against one center tile:
// the dots of each (point, center) pair, the clamped norm expansion
// max(0, (pn + cn) − (dot + dot)) and the running min/argmin, all in
// registers. Centers are visited in ascending order with an ordered
// strict less-than, so ties keep the lowest index and NaN never wins: the
// running best is VMINPD/VMINPS of the new value (first source) and the
// best (second), which keeps the best on ties, on −0 against +0 and on
// NaN, and only the index is blended, under the VCMPPD/VCMPPS LT_OQ mask
// of the same comparison.
//
// Each lane replays the arithmetic of the tile the kernel replaces, so
// the results are bit for bit those of the 2-point/4-center loop:
//
//   - panelNearestF64: one sequential multiply-then-add chain per pair
//     (VMULPD, VADDPD — never FMA), float64's pure-Go order;
//   - panelNearestF32: the AVX2 rung's dot1x4f32avx order for a tile's
//     full groups of four centers, dotWide's 4-chain multiply-then-add
//     order for its tail centers.

// UPDATE64 folds the four float64 dots in acc (pair dots of center
// cNorms[off/8]) into the running best (Y14) and index (Y13) lanes. Y15
// holds the point norms, Y12 the center index, Y11 ones, Y10 zero.
#define UPDATE64(acc, off) \
	VBROADCASTSD off(R9), Y5;  \
	VADDPD       Y5, Y15, Y5;  \
	VADDPD       acc, acc, Y6; \
	VSUBPD       Y6, Y5, Y5;   \
	VMAXPD       Y5, Y10, Y5;  \
	VCMPPD       $0x11, Y14, Y5, Y6; \
	VMINPD       Y14, Y5, Y14;       \
	VBLENDVPD    Y6, Y12, Y13, Y13;  \
	VPADDQ       Y11, Y12, Y12

// UPDATE32 is UPDATE64 for eight float32 lanes and 32-bit index lanes.
#define UPDATE32(acc, off) \
	VBROADCASTSS off(R9), Y5;  \
	VADDPS       Y5, Y15, Y5;  \
	VADDPS       acc, acc, Y6; \
	VSUBPS       Y6, Y5, Y5;   \
	VMAXPS       Y5, Y10, Y5;  \
	VCMPPS       $0x11, Y14, Y5, Y6; \
	VMINPS       Y14, Y5, Y14;       \
	VBLENDVPS    Y6, Y12, Y13, Y13;  \
	VPADDD       Y11, Y12, Y12

// LOAD32 loads the running state: point norms (Y15), best distances
// (Y14), best indices (Y13) and the current center index (Y12, from the
// frame slot at 128(SP)); Y11 = ones, Y10 = zero.
#define LOAD32 \
	MOVQ         pn_base+24(FP), AX;  \
	VMOVUPS      (AX), Y15;           \
	MOVQ         best_base+96(FP), AX; \
	VMOVUPS      (AX), Y14;           \
	MOVQ         idx_base+120(FP), AX; \
	VMOVDQU      (AX), Y13;           \
	VPBROADCASTD 128(SP), Y12;        \
	VPCMPEQD     Y11, Y11, Y11;       \
	VPSRLD       $31, Y11, Y11;       \
	VXORPS       Y10, Y10, Y10

// STORE32 writes the running state back.
#define STORE32 \
	MOVQ    best_base+96(FP), AX;  \
	VMOVUPS Y14, (AX);             \
	MOVQ    idx_base+120(FP), AX;  \
	VMOVDQU Y13, (AX)

// ZERO8 clears the eight chain accumulators of a pass.
#define ZERO8 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7

// BLOCK32 runs residue chains l and l+4 of one 8-coordinate block for a
// group of four centers (rows R8, R12, R13, R10): po0/po1 are the panel
// byte offsets of coordinates l and l+4, co0/co1 their center offsets.
// Chain l of center q accumulates in Y(q), chain l+4 in Y(q+4).
#define BLOCK32(po0, po1, co0, co1) \
	VMOVUPS      po0(DI), Y12;           \
	VBROADCASTSS co0(R8)(AX*4), Y13;     \
	VFMADD231PS  Y13, Y12, Y0;           \
	VBROADCASTSS co0(R12)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y1;           \
	VBROADCASTSS co0(R13)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y2;           \
	VBROADCASTSS co0(R10)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y3;           \
	VMOVUPS      po1(DI), Y12;           \
	VBROADCASTSS co1(R8)(AX*4), Y13;     \
	VFMADD231PS  Y13, Y12, Y4;           \
	VBROADCASTSS co1(R12)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y5;           \
	VBROADCASTSS co1(R13)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y6;           \
	VBROADCASTSS co1(R10)(AX*4), Y13;    \
	VFMADD231PS  Y13, Y12, Y7

// FOLD32 forms t_l = s_l + s_{l+4} for the four centers, in Y0–Y3.
#define FOLD32 \
	VADDPS Y4, Y0, Y0; \
	VADDPS Y5, Y1, Y1; \
	VADDPS Y6, Y2, Y2; \
	VADDPS Y7, Y3, Y3

// GATHER32 gathers coordinate j of the panel's eight rows (Y15 row
// offsets, Y13 live-lane mask) to dst and folds it into norm chain.
#define GATHER32(chain) \
	VMOVDQA    Y13, Y12;              \
	VXORPS     Y4, Y4, Y4;            \
	VGATHERDPS Y12, (BX)(Y15*4), Y4;  \
	VMOVUPS    Y4, (DI);              \
	VMULPS     Y4, Y4, Y5;            \
	VADDPS     Y5, chain, chain;      \
	ADDQ       $4, BX;                \
	ADDQ       $32, DI

// ROWS32 gathers coordinate j (byte offset BX) of the panel's eight
// float64 rows (data pointers in Y15 and Y14, live-lane masks in Y11 and
// Y10), narrows them to float32 into dst and folds them into norm chain.
#define ROWS32(chain) \
	VMOVDQA     Y11, Y12;             \
	VXORPD      Y4, Y4, Y4;           \
	VGATHERQPD  Y12, (BX)(Y15*1), Y4; \
	VMOVDQA     Y10, Y12;             \
	VXORPD      Y5, Y5, Y5;           \
	VGATHERQPD  Y12, (BX)(Y14*1), Y5; \
	VCVTPD2PSY  Y4, X4;               \
	VCVTPD2PSY  Y5, X5;               \
	VINSERTF128 $1, X5, Y4, Y4;       \
	VMOVUPS     Y4, (DI);             \
	VMULPS      Y4, Y4, Y6;           \
	VADDPS      Y6, chain, chain;     \
	ADDQ        $8, BX;               \
	ADDQ        $32, DI

// func panelNearestF64(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int)
TEXT ·panelNearestF64(SB), NOSPLIT, $0-160
	MOVQ panel_base+0(FP), SI
	MOVQ pn_base+24(FP), AX
	MOVQ centers_base+48(FP), R8
	MOVQ cNorms_base+72(FP), R9
	MOVQ cNorms_len+80(FP), CX
	MOVQ best_base+96(FP), R10
	MOVQ idx_base+120(FP), R11
	MOVQ d+144(FP), DX
	MOVQ c0+152(FP), BX

	VMOVUPD      (AX), Y15  // point norms
	VMOVUPD      (R10), Y14 // best distances
	VPMOVZXDQ    (R11), Y13 // best indices, widened to 64-bit lanes
	VMOVQ        BX, X12
	VPBROADCASTQ X12, Y12   // current center index
	MOVQ         $1, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	VXORPD       Y10, Y10, Y10

	MOVQ DX, BX
	SHLQ $3, BX // center row stride in bytes

	CMPQ CX, $4
	JL   tail64

group64:
	LEAQ   (R8)(BX*1), R12
	LEAQ   (R12)(BX*1), R13
	LEAQ   (R13)(BX*1), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   SI, DI
	TESTQ  DX, DX
	JZ     update64

dots64:
	VMOVUPD      (DI), Y4
	VBROADCASTSD (R8)(AX*8), Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R12)(AX*8), Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R13)(AX*8), Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R10)(AX*8), Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, DI
	INCQ         AX
	CMPQ         AX, DX
	JL           dots64

update64:
	UPDATE64(Y0, 0)
	UPDATE64(Y1, 8)
	UPDATE64(Y2, 16)
	UPDATE64(Y3, 24)
	LEAQ (R10)(BX*1), R8
	ADDQ $32, R9
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  group64

tail64:
	TESTQ CX, CX
	JZ    done64

tailc64:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	MOVQ   SI, DI
	TESTQ  DX, DX
	JZ     tailupd64

taild64:
	VMOVUPD      (DI), Y4
	VBROADCASTSD (R8)(AX*8), Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, DI
	INCQ         AX
	CMPQ         AX, DX
	JL           taild64

tailupd64:
	UPDATE64(Y0, 0)
	ADDQ BX, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  tailc64

done64:
	MOVQ         best_base+96(FP), R10
	MOVQ         idx_base+120(FP), R11
	VMOVUPD      Y14, (R10)
	VEXTRACTI128 $1, Y13, X8
	VSHUFPS      $0x88, X8, X13, X8 // low dword of each 64-bit index lane
	VMOVDQU      X8, (R11)
	VZEROUPPER
	RET

// func panelNearestF32(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int)
//
// Frame: 0–127(SP) hold t_2 of the four centers of a group while chains
// 3 and 7 run; 128(SP) holds the current center index.
TEXT ·panelNearestF32(SB), NOSPLIT, $136-160
	MOVQ panel_base+0(FP), SI
	MOVQ centers_base+48(FP), R8
	MOVQ cNorms_base+72(FP), R9
	MOVQ cNorms_len+80(FP), CX
	MOVQ d+144(FP), DX
	MOVQ c0+152(FP), AX
	MOVQ AX, 128(SP)

	MOVQ DX, BX
	SHLQ $2, BX // center row stride in bytes
	MOVQ DX, R11
	ANDQ $-8, R11 // coordinates covered by whole 8-blocks

	CMPQ CX, $4
	JL   tail32

group32:
	LEAQ (R8)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R10

	// Chains 0 and 4, then the d mod 8 tail fused into t_0.
	ZERO8
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold0

pass0:
	BLOCK32(0, 128, 0, 16)
	ADDQ $256, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass0

fold0:
	FOLD32
	CMPQ AX, DX
	JGE  keep0

tail0:
	VMOVUPS      (DI), Y12
	VBROADCASTSS (R8)(AX*4), Y13
	VFMADD231PS  Y13, Y12, Y0
	VBROADCASTSS (R12)(AX*4), Y13
	VFMADD231PS  Y13, Y12, Y1
	VBROADCASTSS (R13)(AX*4), Y13
	VFMADD231PS  Y13, Y12, Y2
	VBROADCASTSS (R10)(AX*4), Y13
	VFMADD231PS  Y13, Y12, Y3
	ADDQ         $32, DI
	INCQ         AX
	CMPQ         AX, DX
	JL           tail0

keep0:
	VMOVAPS Y0, Y8
	VMOVAPS Y1, Y9
	VMOVAPS Y2, Y10
	VMOVAPS Y3, Y11

	// Chains 1 and 5: u = t_0 + t_1.
	ZERO8
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold1

pass1:
	BLOCK32(32, 160, 4, 20)
	ADDQ $256, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass1

fold1:
	FOLD32
	VADDPS Y0, Y8, Y8
	VADDPS Y1, Y9, Y9
	VADDPS Y2, Y10, Y10
	VADDPS Y3, Y11, Y11

	// Chains 2 and 6: t_2 goes to the frame.
	ZERO8
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold2

pass2:
	BLOCK32(64, 192, 8, 24)
	ADDQ $256, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass2

fold2:
	FOLD32
	VMOVUPS Y0, 0(SP)
	VMOVUPS Y1, 32(SP)
	VMOVUPS Y2, 64(SP)
	VMOVUPS Y3, 96(SP)

	// Chains 3 and 7, then dot = (t_0 + t_1) + (t_2 + t_3).
	ZERO8
	XORQ AX, AX
	MOVQ SI, DI
	CMPQ R11, $0
	JE   fold3

pass3:
	BLOCK32(96, 224, 12, 28)
	ADDQ $256, DI
	ADDQ $8, AX
	CMPQ AX, R11
	JL   pass3

fold3:
	FOLD32
	VMOVUPS 0(SP), Y4
	VADDPS  Y0, Y4, Y0
	VMOVUPS 32(SP), Y5
	VADDPS  Y1, Y5, Y1
	VMOVUPS 64(SP), Y6
	VADDPS  Y2, Y6, Y2
	VMOVUPS 96(SP), Y7
	VADDPS  Y3, Y7, Y3
	VADDPS  Y0, Y8, Y0
	VADDPS  Y1, Y9, Y1
	VADDPS  Y2, Y10, Y2
	VADDPS  Y3, Y11, Y3

	LOAD32
	UPDATE32(Y0, 0)
	UPDATE32(Y1, 4)
	UPDATE32(Y2, 8)
	UPDATE32(Y3, 12)
	STORE32
	ADDQ $4, 128(SP)

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
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   SI, DI
	CMPQ   R12, $0
	JE     tailrem32

tail4x32:
	VMOVUPS      (DI), Y4
	VBROADCASTSS (R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMOVUPS      32(DI), Y4
	VBROADCASTSS 4(R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y1, Y1
	VMOVUPS      64(DI), Y4
	VBROADCASTSS 8(R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y2, Y2
	VMOVUPS      96(DI), Y4
	VBROADCASTSS 12(R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y3, Y3
	ADDQ         $128, DI
	ADDQ         $4, AX
	CMPQ         AX, R12
	JL           tail4x32

tailrem32:
	CMPQ AX, DX
	JGE  tailsum32

tail1x32:
	VMOVUPS      (DI), Y4
	VBROADCASTSS (R8)(AX*4), Y5
	VMULPS       Y5, Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $32, DI
	INCQ         AX
	CMPQ         AX, DX
	JL           tail1x32

tailsum32:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0

	LOAD32
	UPDATE32(Y0, 0)
	STORE32
	ADDQ $1, 128(SP)

	ADDQ BX, R8
	ADDQ $4, R9
	DECQ CX
	JNZ  tailc32

done32:
	VZEROUPPER
	RET

// Lane numbers 0–15 as dwords and as qwords: the gather row offsets
// (times d) and the live-lane masks of a partial last panel, shared
// with panel512_amd64.s.
DATA ·panelLanesD+0(SB)/4, $0
DATA ·panelLanesD+4(SB)/4, $1
DATA ·panelLanesD+8(SB)/4, $2
DATA ·panelLanesD+12(SB)/4, $3
DATA ·panelLanesD+16(SB)/4, $4
DATA ·panelLanesD+20(SB)/4, $5
DATA ·panelLanesD+24(SB)/4, $6
DATA ·panelLanesD+28(SB)/4, $7
DATA ·panelLanesD+32(SB)/4, $8
DATA ·panelLanesD+36(SB)/4, $9
DATA ·panelLanesD+40(SB)/4, $10
DATA ·panelLanesD+44(SB)/4, $11
DATA ·panelLanesD+48(SB)/4, $12
DATA ·panelLanesD+52(SB)/4, $13
DATA ·panelLanesD+56(SB)/4, $14
DATA ·panelLanesD+60(SB)/4, $15
GLOBL ·panelLanesD(SB), RODATA|NOPTR, $64

DATA ·panelLanesQ+0(SB)/8, $0
DATA ·panelLanesQ+8(SB)/8, $1
DATA ·panelLanesQ+16(SB)/8, $2
DATA ·panelLanesQ+24(SB)/8, $3
DATA ·panelLanesQ+32(SB)/8, $4
DATA ·panelLanesQ+40(SB)/8, $5
DATA ·panelLanesQ+48(SB)/8, $6
DATA ·panelLanesQ+56(SB)/8, $7
DATA ·panelLanesQ+64(SB)/8, $8
DATA ·panelLanesQ+72(SB)/8, $9
DATA ·panelLanesQ+80(SB)/8, $10
DATA ·panelLanesQ+88(SB)/8, $11
DATA ·panelLanesQ+96(SB)/8, $12
DATA ·panelLanesQ+104(SB)/8, $13
DATA ·panelLanesQ+112(SB)/8, $14
DATA ·panelLanesQ+120(SB)/8, $15
GLOBL ·panelLanesQ(SB), RODATA|NOPTR, $128

// Byte offsets of eight consecutive slice headers' data pointers.
DATA ·panelHeaders+0(SB)/4, $0
DATA ·panelHeaders+4(SB)/4, $24
DATA ·panelHeaders+8(SB)/4, $48
DATA ·panelHeaders+12(SB)/4, $72
DATA ·panelHeaders+16(SB)/4, $96
DATA ·panelHeaders+20(SB)/4, $120
DATA ·panelHeaders+24(SB)/4, $144
DATA ·panelHeaders+28(SB)/4, $168
GLOBL ·panelHeaders(SB), RODATA|NOPTR, $32

// func packPanelsF64(dst, pn, src []float64, rows, d int)
//
// One pass per panel: gather coordinate j of its 4 rows (rows×d
// row-major src) into dst, and fold it into each lane's squared norm in
// sqNormSeq's order (one multiply-then-add chain). Lanes past rows are
// masked off and stay zero.
TEXT ·packPanelsF64(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ rows+72(FP), CX
	MOVQ d+80(FP), DX

	VMOVQ        DX, X14
	VPBROADCASTD X14, X14
	VMOVDQU      ·panelLanesD(SB), X15
	VPMULLD      X14, X15, X15 // row offsets l·d
	MOVQ         DX, R10
	SHLQ         $5, R10       // src bytes per panel: 4 rows × d × 8

pack64:
	VMOVQ        CX, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ     ·panelLanesQ(SB), Y13, Y13 // live lanes: l < rows left
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX
	MOVQ         SI, BX
	TESTQ        DX, DX
	JZ           norm64

coord64:
	VMOVDQA    Y13, Y12
	VXORPD     Y4, Y4, Y4
	VGATHERDPD Y12, (BX)(X15*8), Y4
	VMOVUPD    Y4, (DI)
	VMULPD     Y4, Y4, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ       $8, BX
	ADDQ       $32, DI
	INCQ       AX
	CMPQ       AX, DX
	JL         coord64

norm64:
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    R10, SI
	SUBQ    $4, CX
	JG      pack64
	VZEROUPPER
	RET

// func packPanelsF32(dst, pn, src []float32, rows, d int)
//
// packPanelsF64 for 8-row float32 panels, with the norms in sqNormWide's
// order: four multiply-then-add chains over the whole 4-blocks, the
// d mod 4 tail into chain 0, then (s0 + s1) + (s2 + s3).
TEXT ·packPanelsF32(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ rows+72(FP), CX
	MOVQ d+80(FP), DX

	VMOVQ        DX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU      ·panelLanesD(SB), Y15
	VPMULLD      Y14, Y15, Y15 // row offsets l·d
	MOVQ         DX, R9
	ANDQ         $-4, R9       // coordinates covered by whole 4-blocks
	MOVQ         DX, R10
	SHLQ         $5, R10       // src bytes per panel: 8 rows × d × 4

pack32:
	VMOVQ        CX, X13
	VPBROADCASTD X13, Y13
	VPCMPGTD     ·panelLanesD(SB), Y13, Y13 // live lanes: l < rows left
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	XORQ         AX, AX
	MOVQ         SI, BX
	CMPQ         R9, $0
	JE           tail32p

block32p:
	GATHER32(Y0)
	GATHER32(Y1)
	GATHER32(Y2)
	GATHER32(Y3)
	ADDQ $4, AX
	CMPQ AX, R9
	JL   block32p

tail32p:
	CMPQ AX, DX
	JGE  norm32

tailc32p:
	GATHER32(Y0)
	INCQ AX
	CMPQ AX, DX
	JL   tailc32p

norm32:
	VADDPS  Y1, Y0, Y0
	VADDPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    $32, R8
	ADDQ    R10, SI
	SUBQ    $8, CX
	JG      pack32
	VZEROUPPER
	RET

// func packRowsF64(dst, pn []float64, rows [][]float64, d int)
//
// packPanelsF64 with the points held as one slice per row: each panel's
// four row pointers are gathered from the slice headers, then coordinate
// j of the four rows is gathered straight from them.
TEXT ·packRowsF64(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ rows_base+48(FP), SI
	MOVQ rows_len+56(FP), CX
	MOVQ d+72(FP), DX
	VMOVDQU ·panelHeaders(SB), X14

rowsPanel64:
	VMOVQ        CX, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ     ·panelLanesQ(SB), Y13, Y13 // live lanes: l < rows left
	VMOVDQA      Y13, Y12
	VPXOR        Y15, Y15, Y15
	VPGATHERDQ   Y12, (SI)(X14*1), Y15  // row data pointers
	VXORPD       Y0, Y0, Y0
	XORQ         AX, AX
	XORQ         BX, BX
	TESTQ        DX, DX
	JZ           rowsNorm64

rowsCoord64:
	VMOVDQA    Y13, Y12
	VXORPD     Y4, Y4, Y4
	VGATHERQPD Y12, (BX)(Y15*1), Y4
	VMOVUPD    Y4, (DI)
	VMULPD     Y4, Y4, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ       $8, BX
	ADDQ       $32, DI
	INCQ       AX
	CMPQ       AX, DX
	JL         rowsCoord64

rowsNorm64:
	VMOVUPD Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $96, SI
	SUBQ    $4, CX
	JG      rowsPanel64
	VZEROUPPER
	RET

// func packRowsF32(dst, pn []float32, rows [][]float64, d int)
//
// packRowsF64 for 8-point float32 panels: the gathered float64
// coordinates are narrowed (VCVTPD2PS, round to nearest, as narrow32
// rounds) before they are stored and folded into sqNormWide's chains.
TEXT ·packRowsF32(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ pn_base+24(FP), R8
	MOVQ rows_base+48(FP), SI
	MOVQ rows_len+56(FP), CX
	MOVQ d+72(FP), DX
	VMOVDQU ·panelHeaders(SB), X13
	MOVQ    DX, R9
	ANDQ    $-4, R9 // coordinates covered by whole 4-blocks

rowsPanel32:
	VMOVQ        CX, X11
	VPBROADCASTQ X11, Y11
	VMOVDQA      Y11, Y10
	VPCMPGTQ     ·panelLanesQ(SB), Y11, Y11   // live lanes 0–3
	VPCMPGTQ     ·panelLanesQ+32(SB), Y10, Y10 // live lanes 4–7
	VMOVDQA      Y11, Y12
	VPXOR        Y15, Y15, Y15
	VPGATHERDQ   Y12, (SI)(X13*1), Y15     // row data pointers, lanes 0–3
	VMOVDQA      Y10, Y12
	VPXOR        Y14, Y14, Y14
	VPGATHERDQ   Y12, 96(SI)(X13*1), Y14   // lanes 4–7
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	XORQ         AX, AX
	XORQ         BX, BX
	CMPQ         R9, $0
	JE           rowsTail32

rowsBlock32:
	ROWS32(Y0)
	ROWS32(Y1)
	ROWS32(Y2)
	ROWS32(Y3)
	ADDQ $4, AX
	CMPQ AX, R9
	JL   rowsBlock32

rowsTail32:
	CMPQ AX, DX
	JGE  rowsNorm32

rowsTailc32:
	ROWS32(Y0)
	INCQ AX
	CMPQ AX, DX
	JL   rowsTailc32

rowsNorm32:
	VADDPS  Y1, Y0, Y0
	VADDPS  Y3, Y2, Y2
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $192, SI
	SUBQ    $8, CX
	JG      rowsPanel32
	VZEROUPPER
	RET
