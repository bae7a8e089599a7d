#include "textflag.h"

// Lane constants: the first indices of the lanes (float64: two sets of
// four; float32: one set of eight), the index step per pass, and +Inf.
DATA lanesD<>+0(SB)/8, $0x0000000000000000
DATA lanesD<>+8(SB)/8, $0x3ff0000000000000
DATA lanesD<>+16(SB)/8, $0x4000000000000000
DATA lanesD<>+24(SB)/8, $0x4008000000000000
DATA lanesD<>+32(SB)/8, $0x4010000000000000
DATA lanesD<>+40(SB)/8, $0x4014000000000000
DATA lanesD<>+48(SB)/8, $0x4018000000000000
DATA lanesD<>+56(SB)/8, $0x401c000000000000
DATA lanesD<>+64(SB)/8, $0x4020000000000000
GLOBL lanesD<>(SB), RODATA|NOPTR, $72

DATA lanesS<>+0(SB)/4, $0x00000000
DATA lanesS<>+4(SB)/4, $0x3f800000
DATA lanesS<>+8(SB)/4, $0x40000000
DATA lanesS<>+12(SB)/4, $0x40400000
DATA lanesS<>+16(SB)/4, $0x40800000
DATA lanesS<>+20(SB)/4, $0x40a00000
DATA lanesS<>+24(SB)/4, $0x40c00000
DATA lanesS<>+28(SB)/4, $0x40e00000
DATA lanesS<>+32(SB)/4, $0x41000000
DATA lanesS<>+36(SB)/4, $0x7f800000
GLOBL lanesS<>(SB), RODATA|NOPTR, $40

// colMask holds 16 all-ones quadwords and 16 zero ones: the 16 quadwords
// from (16−r)·8 on are the load/store masks of a pass over r ≤ 16
// columns, lane l of ymm g set when 4g+l < r.
DATA colMask<>+0(SB)/8, $-1
DATA colMask<>+8(SB)/8, $-1
DATA colMask<>+16(SB)/8, $-1
DATA colMask<>+24(SB)/8, $-1
DATA colMask<>+32(SB)/8, $-1
DATA colMask<>+40(SB)/8, $-1
DATA colMask<>+48(SB)/8, $-1
DATA colMask<>+56(SB)/8, $-1
DATA colMask<>+64(SB)/8, $-1
DATA colMask<>+72(SB)/8, $-1
DATA colMask<>+80(SB)/8, $-1
DATA colMask<>+88(SB)/8, $-1
DATA colMask<>+96(SB)/8, $-1
DATA colMask<>+104(SB)/8, $-1
DATA colMask<>+112(SB)/8, $-1
DATA colMask<>+120(SB)/8, $-1
DATA colMask<>+128(SB)/8, $0
DATA colMask<>+136(SB)/8, $0
DATA colMask<>+144(SB)/8, $0
DATA colMask<>+152(SB)/8, $0
DATA colMask<>+160(SB)/8, $0
DATA colMask<>+168(SB)/8, $0
DATA colMask<>+176(SB)/8, $0
DATA colMask<>+184(SB)/8, $0
DATA colMask<>+192(SB)/8, $0
DATA colMask<>+200(SB)/8, $0
DATA colMask<>+208(SB)/8, $0
DATA colMask<>+216(SB)/8, $0
DATA colMask<>+224(SB)/8, $0
DATA colMask<>+232(SB)/8, $0
DATA colMask<>+240(SB)/8, $0
DATA colMask<>+248(SB)/8, $0
GLOBL colMask<>(SB), RODATA|NOPTR, $256

// TAKE folds the distances e of the lanes' current centroids (indices
// cur) into the lanes' running minima best and their indices bidx: a
// lane takes e only when e < best (ordered, so a NaN never wins).
// VMINPD e, best is that same choice of value.
#define TAKE(e, best, bidx, cur, m) \
	VCMPPD    $1, best, e, m; \
	VMINPD    best, e, best; \
	VBLENDVPD m, cur, bidx, bidx

// MERGE folds lanes (dB, iB) into (dA, iA): B's lane wins when its
// distance is smaller, or equal with a smaller index — the first strict
// minimum of the two lanes' centroids together. With both NaN (centroid
// 0's distance seeded every lane) A's index 0 stays.
#define MERGE(dA, iA, dB, iB, m1, m2, m3) \
	VCMPPD    $1, dA, dB, m1; \
	VCMPPD    $0, dA, dB, m2; \
	VCMPPD    $1, iA, iB, m3; \
	VANDPD    m3, m2, m2;     \
	VORPD     m2, m1, m1;     \
	VBLENDVPD m1, dB, dA, dA; \
	VBLENDVPD m1, iB, iA, iA

// MERGES is MERGE on float32 lanes.
#define MERGES(dA, iA, dB, iB, m1, m2, m3) \
	VCMPPS    $1, dA, dB, m1; \
	VCMPPS    $0, dA, dB, m2; \
	VCMPPS    $1, iA, iB, m3; \
	VANDPS    m3, m2, m2;     \
	VORPS     m2, m1, m1;     \
	VBLENDVPS m1, dB, dA, dA; \
	VBLENDVPS m1, iB, iA, iA

// LANEMIN reduces the four lanes of (Y0 distances, Y1 indices) to lane 0
// and stores the index and the distance into the results best and bestD.
#define LANEMIN(best, bestD) \
	VEXTRACTF128 $1, Y0, X2;                  \
	VEXTRACTF128 $1, Y1, X3;                  \
	MERGE(X0, X1, X2, X3, X4, X5, X6);        \
	VPERMILPD    $1, X0, X2;                  \
	VPERMILPD    $1, X1, X3;                  \
	MERGE(X0, X1, X2, X3, X4, X5, X6);        \
	VZEROUPPER;                               \
	CVTTSD2SQ    X1, AX;                      \
	MOVQ         AX, best;                    \
	MOVSD        X0, bestD

// SQ2 leaves in e the four distances float64(d0*d0) + float64(d1*d1) of
// centroids AX+off/8.. against the point (Y14, Y15): widen nothing (the
// columns are float64), subtract, square, add, each rounded on its own.
#define SQ2(off, e, t) \
	VMOVUPD off(SI)(AX*8), e; \
	VSUBPD  e, Y14, e;        \
	VMULPD  e, e, e;          \
	VMOVUPD off(DI)(AX*8), t; \
	VSUBPD  t, Y15, t;        \
	VMULPD  t, t, t;          \
	VADDPD  t, e, e

// func nearestCol2Lanes(x0, x1 float64, c0, c1 []float64, seed float64) (best int, bestD float64)
//
// Set A (Y0 distances, Y1 indices) takes centroids 8t..8t+3 and set B
// (Y2, Y3) centroids 8t+4..8t+7; Y8 and Y9 hold their current indices as
// float64, stepped by Y10 = 8.
TEXT ·nearestCol2Lanes(SB), NOSPLIT, $0-88
	VBROADCASTSD x0+0(FP), Y14
	VBROADCASTSD x1+8(FP), Y15
	MOVQ         c0_base+16(FP), SI
	MOVQ         c0_len+24(FP), CX
	MOVQ         c1_base+40(FP), DI
	VBROADCASTSD seed+64(FP), Y0
	VMOVAPD      Y0, Y2
	VXORPD       Y1, Y1, Y1
	VXORPD       Y3, Y3, Y3
	VMOVUPD      lanesD<>+0(SB), Y8
	VMOVUPD      lanesD<>+32(SB), Y9
	VBROADCASTSD lanesD<>+64(SB), Y10
	XORQ         AX, AX

col2:
	SQ2(0, Y4, Y5)
	TAKE(Y4, Y0, Y1, Y8, Y6)
	SQ2(32, Y5, Y7)
	TAKE(Y5, Y2, Y3, Y9, Y11)
	VADDPD Y10, Y8, Y8
	VADDPD Y10, Y9, Y9
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    col2

	MERGE(Y0, Y1, Y2, Y3, Y4, Y5, Y6)
	LANEMIN(best+72(FP), bestD+80(FP))
	RET

// SQ4 is SQ2 over four columns (SI, DI, R8, R9) against (Y12..Y15):
// (d0² + d1²) + (d2² + d3²).
#define SQ4(off, e, t, u) \
	VMOVUPD off(SI)(AX*8), e; \
	VSUBPD  e, Y12, e;        \
	VMULPD  e, e, e;          \
	VMOVUPD off(DI)(AX*8), t; \
	VSUBPD  t, Y13, t;        \
	VMULPD  t, t, t;          \
	VADDPD  t, e, e;          \
	VMOVUPD off(R8)(AX*8), t; \
	VSUBPD  t, Y14, t;        \
	VMULPD  t, t, t;          \
	VMOVUPD off(R9)(AX*8), u; \
	VSUBPD  u, Y15, u;        \
	VMULPD  u, u, u;          \
	VADDPD  u, t, t;          \
	VADDPD  t, e, e

// func nearestCol4Lanes(x0, x1, x2, x3 float64, c0, c1, c2, c3 []float64, seed float64) (best int, bestD float64)
TEXT ·nearestCol4Lanes(SB), NOSPLIT, $0-152
	VBROADCASTSD x0+0(FP), Y12
	VBROADCASTSD x1+8(FP), Y13
	VBROADCASTSD x2+16(FP), Y14
	VBROADCASTSD x3+24(FP), Y15
	MOVQ         c0_base+32(FP), SI
	MOVQ         c0_len+40(FP), CX
	MOVQ         c1_base+56(FP), DI
	MOVQ         c2_base+80(FP), R8
	MOVQ         c3_base+104(FP), R9
	VBROADCASTSD seed+128(FP), Y0
	VMOVAPD      Y0, Y2
	VXORPD       Y1, Y1, Y1
	VXORPD       Y3, Y3, Y3
	VMOVUPD      lanesD<>+0(SB), Y8
	VMOVUPD      lanesD<>+32(SB), Y9
	VBROADCASTSD lanesD<>+64(SB), Y10
	XORQ         AX, AX

col4:
	SQ4(0, Y4, Y5, Y6)
	TAKE(Y4, Y0, Y1, Y8, Y7)
	SQ4(32, Y4, Y5, Y6)
	TAKE(Y4, Y2, Y3, Y9, Y11)
	VADDPD Y10, Y8, Y8
	VADDPD Y10, Y9, Y9
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    col4

	MERGE(Y0, Y1, Y2, Y3, Y4, Y5, Y6)
	LANEMIN(best+136(FP), bestD+144(FP))
	RET

// AXPY adds coef (Y4) times the masked row columns at off(DX) to acc.
#define AXPY(off, mask, acc, t) \
	VMASKMOVPD off(DX), mask, t; \
	VMULPD     t, Y4, t;         \
	VADDPD     t, acc, acc

// func addScaledRowsAVX(dst, coef []float64, stride int, rows []float64)
//
// A pass holds up to 16 output columns in Y0..Y3 (masked by Y8..Y11 past
// the row's end) and walks every row once: a zero coefficient (ordered
// equal, so not a NaN) skips the row, any other adds the unfused product
// coef·row into each column's sum. Registers: DI dst, CX w, SI coef,
// R8 stride bytes, R9 rows, R10 row count, R11 row bytes, BX the pass's
// first column, AX/DX the coefficient and row cursors, R12 the rows left.
TEXT ·addScaledRowsAVX(SB), NOSPLIT, $0-80
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   coef_base+24(FP), SI
	MOVQ   stride+48(FP), R8
	SHLQ   $3, R8
	MOVQ   rows_base+56(FP), R9
	MOVQ   rows_len+64(FP), AX
	XORQ   DX, DX
	DIVQ   CX
	MOVQ   AX, R10
	MOVQ   CX, R11
	SHLQ   $3, R11
	VXORPD X15, X15, X15
	XORQ   BX, BX

pass:
	MOVQ CX, DX
	SUBQ BX, DX
	CMPQ DX, $16
	JLE  masks
	MOVQ $16, DX

masks:
	NEGQ       DX
	LEAQ       colMask<>+128(SB), R13
	LEAQ       (R13)(DX*8), R13
	VMOVUPD    0(R13), Y8
	VMOVUPD    32(R13), Y9
	VMOVUPD    64(R13), Y10
	VMOVUPD    96(R13), Y11
	LEAQ       (DI)(BX*8), R13
	VMASKMOVPD 0(R13), Y8, Y0
	VMASKMOVPD 32(R13), Y9, Y1
	VMASKMOVPD 64(R13), Y10, Y2
	VMASKMOVPD 96(R13), Y11, Y3
	MOVQ       SI, AX
	LEAQ       (R9)(BX*8), DX
	MOVQ       R10, R12

row:
	VBROADCASTSD (AX), Y4
	VUCOMISD     X15, X4
	JNE          add
	JPS          add
	JMP          next

add:
	AXPY(0, Y8, Y0, Y5)
	AXPY(32, Y9, Y1, Y6)
	AXPY(64, Y10, Y2, Y7)
	AXPY(96, Y11, Y3, Y12)

next:
	ADDQ R8, AX
	ADDQ R11, DX
	DECQ R12
	JNZ  row

	VMASKMOVPD Y0, Y8, 0(R13)
	VMASKMOVPD Y1, Y9, 32(R13)
	VMASKMOVPD Y2, Y10, 64(R13)
	VMASKMOVPD Y3, Y11, 96(R13)
	ADDQ       $16, BX
	CMPQ       BX, CX
	JLT        pass
	VZEROUPPER
	RET

// PSQ adds to acc the float32 squares of head (Y4) minus the eight
// points' values at off(DX): subtract, square, add, each rounded on its
// own.
#define PSQ(off, acc, t) \
	VMOVUPS off(DX), t; \
	VSUBPS  t, Y4, t;   \
	VMULPS  t, t, t;    \
	VADDPS  t, acc, acc

// RANK folds the eight finished sums acc (points Y14) into the lanes'
// running minima Y12 and indices Y13, and steps Y14 by eight.
#define RANK(acc) \
	VCMPPS    $1, Y12, acc, Y9;  \
	VBLENDVPS Y9, acc, Y12, Y12; \
	VBLENDVPS Y9, Y14, Y13, Y13; \
	VADDPS    Y15, Y14, Y14

// func nearestPrefixAVX(head, cols []float32, k8 int) int
//
// Points run 32 per pass (Y0..Y3, one accumulator each per lane) while
// 32 remain, then 8 per pass; every pass walks the p dimensions in
// order. Lanes start at +Inf with index 0, so a lane with no sum below
// +Inf leaves point 0. Registers: SI head, CX p, DI cols, R8 k8, R9 the
// column stride in bytes, BX the pass's first point, DX the column
// cursor, R10 the dimension.
TEXT ·nearestPrefixAVX(SB), NOSPLIT, $0-64
	MOVQ         head_base+0(FP), SI
	MOVQ         head_len+8(FP), CX
	MOVQ         cols_base+24(FP), DI
	MOVQ         k8+48(FP), R8
	MOVQ         R8, R9
	SHLQ         $2, R9
	VBROADCASTSS lanesS<>+36(SB), Y12
	VXORPS       Y13, Y13, Y13
	VMOVUPS      lanesS<>+0(SB), Y14
	VBROADCASTSS lanesS<>+32(SB), Y15
	XORQ         BX, BX

pass32:
	MOVQ   R8, AX
	SUBQ   BX, AX
	CMPQ   AX, $32
	JLT    pass8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ   (DI)(BX*4), DX
	XORQ   R10, R10

dims32:
	VBROADCASTSS (SI)(R10*4), Y4
	PSQ(0, Y0, Y5)
	PSQ(32, Y1, Y6)
	PSQ(64, Y2, Y7)
	PSQ(96, Y3, Y8)
	ADDQ         R9, DX
	INCQ         R10
	CMPQ         R10, CX
	JLT          dims32
	RANK(Y0)
	RANK(Y1)
	RANK(Y2)
	RANK(Y3)
	ADDQ         $32, BX
	JMP          pass32

pass8:
	CMPQ   BX, R8
	JGE    ranked
	VXORPS Y0, Y0, Y0
	LEAQ   (DI)(BX*4), DX
	XORQ   R10, R10

dims8:
	VBROADCASTSS (SI)(R10*4), Y4
	PSQ(0, Y0, Y5)
	ADDQ         R9, DX
	INCQ         R10
	CMPQ         R10, CX
	JLT          dims8
	RANK(Y0)
	ADDQ         $8, BX
	JMP          pass8

ranked:
	VEXTRACTF128 $1, Y12, X0
	VEXTRACTF128 $1, Y13, X1
	MERGES(X12, X13, X0, X1, X4, X5, X6)
	VPERMILPS    $0x4e, X12, X0
	VPERMILPS    $0x4e, X13, X1
	MERGES(X12, X13, X0, X1, X4, X5, X6)
	VPERMILPS    $0xb1, X12, X0
	VPERMILPS    $0xb1, X13, X1
	MERGES(X12, X13, X0, X1, X4, X5, X6)
	VZEROUPPER
	CVTTSS2SL    X13, AX
	MOVQ         AX, ret+56(FP)
	RET

// func foldMinMaxAVX(lo, hi, rows []float32)
//
// Row by row, eight dimensions per step and the w%8 last one at a time:
// VMINPS v, lo gives v where v < lo and lo otherwise (a NaN on either
// side, or ±0 against ±0, keeps lo), which is the scalar `if v < lo`;
// VMAXPS v, hi likewise `if v > hi`. Registers: DI lo, SI hi, CX w, R9
// w&^7, DX the row, R8 the end of rows, AX the dimension.
TEXT ·foldMinMaxAVX(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), DI
	MOVQ lo_len+8(FP), CX
	MOVQ hi_base+24(FP), SI
	MOVQ rows_base+48(FP), DX
	MOVQ rows_len+56(FP), R8
	LEAQ (DX)(R8*4), R8
	MOVQ CX, R9
	ANDQ $~7, R9

fold:
	CMPQ DX, R8
	JGE  folded
	XORQ AX, AX

fold8:
	VMOVUPS (DX)(AX*4), Y0
	VMOVUPS (DI)(AX*4), Y1
	VMINPS  Y1, Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS (SI)(AX*4), Y2
	VMAXPS  Y2, Y0, Y2
	VMOVUPS Y2, (SI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLT     fold8

fold1:
	CMPQ   AX, CX
	JGE    folded1
	VMOVSS (DX)(AX*4), X0
	VMOVSS (DI)(AX*4), X1
	VMINSS X1, X0, X1
	VMOVSS X1, (DI)(AX*4)
	VMOVSS (SI)(AX*4), X2
	VMAXSS X2, X0, X2
	VMOVSS X2, (SI)(AX*4)
	INCQ   AX
	JMP    fold1

folded1:
	LEAQ (DX)(CX*4), DX
	JMP  fold

folded:
	VZEROUPPER
	RET

// func addWidenedAVX(acc []float64, row []float32)
TEXT ·addWidenedAVX(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

widen:
	VCVTPS2PD (SI)(AX*4), Y0
	VMOVUPD   (DI)(AX*8), Y1
	VADDPD    Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       widen
	VZEROUPPER
	RET

// GATHER4 leaves in Y1 the four rows' values at dimension AX, widened,
// minus mean[AX]: (float64(x_r[j]) − mean[j]) for r = 0..3.
#define GATHER4 \
	VMOVSS       (R8)(AX*4), X1;             \
	VINSERTPS    $0x10, (R9)(AX*4), X1, X1;  \
	VINSERTPS    $0x20, (R10)(AX*4), X1, X1; \
	VINSERTPS    $0x30, (R11)(AX*4), X1, X1; \
	VCVTPS2PD    X1, Y1;                     \
	VBROADCASTSD (SI)(AX*8), Y2;             \
	VSUBPD       Y2, Y1, Y1

// SCATTER4 rounds the four sums in acc to float32 and stores lane r at
// (R13) + r·BX, the rows' outputs being BX = 4m bytes apart.
#define SCATTER4(acc) \
	VCVTPD2PSY acc, X0;                 \
	VMOVSS     X0, (R13);               \
	VEXTRACTPS $1, X0, (R13)(BX*1);     \
	VEXTRACTPS $2, X0, (R13)(BX*2);     \
	LEAQ       (R13)(BX*2), AX;         \
	VEXTRACTPS $3, X0, (AX)(BX*1)

// func project4AVX(dst []float32, xs *[4][]float32, mean, comp []float64)
//
// Lane r is row r. Outputs run two per pass (Y0 and Y6, components DX
// and DX+n), then the last alone, each summing (x−mean)·comp from 0 in
// ascending dimension as its own float64 add. Registers: DI dst, BX 4m
// (the outputs of one row, in bytes), R8..R11 the rows, SI mean, CX n,
// DX the pass's component row, R12 the pass's output offset in bytes,
// R13 a row or store cursor, AX the dimension.
TEXT ·project4AVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ xs+24(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ mean_base+32(FP), SI
	MOVQ mean_len+40(FP), CX
	MOVQ comp_base+56(FP), DX
	XORQ R12, R12

pair:
	LEAQ   4(R12), AX
	CMPQ   AX, BX
	JGE    single
	VXORPD Y0, Y0, Y0
	VXORPD Y6, Y6, Y6
	LEAQ   (DX)(CX*8), R13
	XORQ   AX, AX

pairdims:
	GATHER4
	VBROADCASTSD (DX)(AX*8), Y3
	VMULPD       Y3, Y1, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD (R13)(AX*8), Y4
	VMULPD       Y4, Y1, Y4
	VADDPD       Y4, Y6, Y6
	INCQ         AX
	CMPQ         AX, CX
	JLT          pairdims
	LEAQ         (DI)(R12*1), R13
	SCATTER4(Y0)
	ADDQ         $4, R13
	SCATTER4(Y6)
	ADDQ         $8, R12
	LEAQ         (DX)(CX*8), DX
	LEAQ         (DX)(CX*8), DX
	JMP          pair

single:
	CMPQ   R12, BX
	JGE    projected
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

singledims:
	GATHER4
	VBROADCASTSD (DX)(AX*8), Y3
	VMULPD       Y3, Y1, Y3
	VADDPD       Y3, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JLT          singledims
	LEAQ         (DI)(R12*1), R13
	SCATTER4(Y0)

projected:
	VZEROUPPER
	RET
