//go:build !noasm

#include "textflag.h"

// NEON kernels for the vec primitives. The Go arm64 assembler exposes only
// a narrow float-vector vocabulary (VFMLA/VFMLS, VLD1/VST1, VDUP, lane
// VMOV), so the kernels are shaped around it:
//
//   - the hot loops are pure FMLA with multiple accumulators;
//   - the gemm micro-kernels fold the "C +=" into the accumulators by
//     loading C first, so no vector add is ever needed;
//   - reductions leave vector lanes via VMOV to a general register and
//     finish with scalar FADDD/FADDS;
//   - scalar tails use FMULD/FADDS-style two-operand forms only, whose
//     semantics (Fd = Fd op Fm) are unambiguous.

// func dotF64(x, y *float64, n int) float64
TEXT ·dotF64(SB), NOSPLIT, $0-32
	MOVD x+0(FP), R0
	MOVD y+8(FP), R1
	MOVD n+16(FP), R2
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16

dot64loop8:
	CMP  $8, R2
	BLT  dot64loop2
	VLD1.P 64(R0), [V4.D2, V5.D2, V6.D2, V7.D2]
	VLD1.P 64(R1), [V16.D2, V17.D2, V18.D2, V19.D2]
	VFMLA V16.D2, V4.D2, V0.D2
	VFMLA V17.D2, V5.D2, V1.D2
	VFMLA V18.D2, V6.D2, V2.D2
	VFMLA V19.D2, V7.D2, V3.D2
	SUB  $8, R2
	B    dot64loop8

dot64loop2:
	CMP  $2, R2
	BLT  dot64reduce
	VLD1.P 16(R0), [V4.D2]
	VLD1.P 16(R1), [V16.D2]
	VFMLA V16.D2, V4.D2, V0.D2
	SUB  $2, R2
	B    dot64loop2

dot64reduce:
	VMOV V0.D[0], R4
	FMOVD R4, F1
	VMOV V0.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V1.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V1.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V2.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V2.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V3.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V3.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	CBZ  R2, dot64done

dot64scalar:
	FMOVD (R0), F2
	FMOVD (R1), F3
	FMULD F3, F2
	FADDD F2, F1
	ADD  $8, R0
	ADD  $8, R1
	SUB  $1, R2
	CBNZ R2, dot64scalar

dot64done:
	FMOVD F1, ret+24(FP)
	RET

// func dotF32(x, y *float32, n int) float32
TEXT ·dotF32(SB), NOSPLIT, $0-28
	MOVD x+0(FP), R0
	MOVD y+8(FP), R1
	MOVD n+16(FP), R2
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16

dot32loop16:
	CMP  $16, R2
	BLT  dot32loop4
	VLD1.P 64(R0), [V4.S4, V5.S4, V6.S4, V7.S4]
	VLD1.P 64(R1), [V16.S4, V17.S4, V18.S4, V19.S4]
	VFMLA V16.S4, V4.S4, V0.S4
	VFMLA V17.S4, V5.S4, V1.S4
	VFMLA V18.S4, V6.S4, V2.S4
	VFMLA V19.S4, V7.S4, V3.S4
	SUB  $16, R2
	B    dot32loop16

dot32loop4:
	CMP  $4, R2
	BLT  dot32reduce
	VLD1.P 16(R0), [V4.S4]
	VLD1.P 16(R1), [V16.S4]
	VFMLA V16.S4, V4.S4, V0.S4
	SUB  $4, R2
	B    dot32loop4

dot32reduce:
	VMOV V0.S[0], R4
	FMOVS R4, F1
	VMOV V0.S[1], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V0.S[2], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V0.S[3], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V1.S[0], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V1.S[1], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V1.S[2], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V1.S[3], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V2.S[0], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V2.S[1], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V2.S[2], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V2.S[3], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V3.S[0], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V3.S[1], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V3.S[2], R4
	FMOVS R4, F2
	FADDS F2, F1
	VMOV V3.S[3], R4
	FMOVS R4, F2
	FADDS F2, F1
	CBZ  R2, dot32done

dot32scalar:
	FMOVS (R0), F2
	FMOVS (R1), F3
	FMULS F3, F2
	FADDS F2, F1
	ADD  $4, R0
	ADD  $4, R1
	SUB  $1, R2
	CBNZ R2, dot32scalar

dot32done:
	FMOVS F1, ret+24(FP)
	RET

// func axpyF64(alpha float64, x, y *float64, n int)
TEXT ·axpyF64(SB), NOSPLIT, $0-32
	FMOVD alpha+0(FP), F0
	VDUP V0.D[0], V1.D2
	MOVD x+8(FP), R0
	MOVD y+16(FP), R1
	MOVD n+24(FP), R2

axpy64loop8:
	CMP  $8, R2
	BLT  axpy64loop2
	VLD1.P 64(R0), [V2.D2, V3.D2, V4.D2, V5.D2]
	VLD1 (R1), [V16.D2, V17.D2, V18.D2, V19.D2]
	VFMLA V1.D2, V2.D2, V16.D2
	VFMLA V1.D2, V3.D2, V17.D2
	VFMLA V1.D2, V4.D2, V18.D2
	VFMLA V1.D2, V5.D2, V19.D2
	VST1.P [V16.D2, V17.D2, V18.D2, V19.D2], 64(R1)
	SUB  $8, R2
	B    axpy64loop8

axpy64loop2:
	CMP  $2, R2
	BLT  axpy64scalar
	VLD1.P 16(R0), [V2.D2]
	VLD1 (R1), [V16.D2]
	VFMLA V1.D2, V2.D2, V16.D2
	VST1.P [V16.D2], 16(R1)
	SUB  $2, R2
	B    axpy64loop2

axpy64scalar:
	CBZ  R2, axpy64done
	FMOVD (R0), F2
	FMOVD (R1), F3
	FMULD F0, F2
	FADDD F2, F3
	FMOVD F3, (R1)
	ADD  $8, R0
	ADD  $8, R1
	SUB  $1, R2
	B    axpy64scalar

axpy64done:
	RET

// func axpyF32(alpha float32, x, y *float32, n int)
TEXT ·axpyF32(SB), NOSPLIT, $0-32
	FMOVS alpha+0(FP), F0
	VDUP V0.S[0], V1.S4
	MOVD x+8(FP), R0
	MOVD y+16(FP), R1
	MOVD n+24(FP), R2

axpy32loop16:
	CMP  $16, R2
	BLT  axpy32loop4
	VLD1.P 64(R0), [V2.S4, V3.S4, V4.S4, V5.S4]
	VLD1 (R1), [V16.S4, V17.S4, V18.S4, V19.S4]
	VFMLA V1.S4, V2.S4, V16.S4
	VFMLA V1.S4, V3.S4, V17.S4
	VFMLA V1.S4, V4.S4, V18.S4
	VFMLA V1.S4, V5.S4, V19.S4
	VST1.P [V16.S4, V17.S4, V18.S4, V19.S4], 64(R1)
	SUB  $16, R2
	B    axpy32loop16

axpy32loop4:
	CMP  $4, R2
	BLT  axpy32scalar
	VLD1.P 16(R0), [V2.S4]
	VLD1 (R1), [V16.S4]
	VFMLA V1.S4, V2.S4, V16.S4
	VST1.P [V16.S4], 16(R1)
	SUB  $4, R2
	B    axpy32loop4

axpy32scalar:
	CBZ  R2, axpy32done
	FMOVS (R0), F2
	FMOVS (R1), F3
	FMULS F0, F2
	FADDS F2, F3
	FMOVS F3, (R1)
	ADD  $4, R0
	ADD  $4, R1
	SUB  $1, R2
	B    axpy32scalar

axpy32done:
	RET

// func axpy2F64(alpha float64, x1 *float64, beta float64, x2, y *float64, n int)
TEXT ·axpy2F64(SB), NOSPLIT, $0-48
	FMOVD alpha+0(FP), F0
	VDUP V0.D[0], V1.D2
	FMOVD beta+16(FP), F3
	VDUP V3.D[0], V2.D2
	MOVD x1+8(FP), R0
	MOVD x2+24(FP), R1
	MOVD y+32(FP), R2
	MOVD n+40(FP), R3

axpy2n64loop4:
	CMP  $4, R3
	BLT  axpy2n64loop2
	VLD1.P 32(R0), [V4.D2, V5.D2]
	VLD1.P 32(R1), [V6.D2, V7.D2]
	VLD1 (R2), [V16.D2, V17.D2]
	VFMLA V1.D2, V4.D2, V16.D2
	VFMLA V1.D2, V5.D2, V17.D2
	VFMLA V2.D2, V6.D2, V16.D2
	VFMLA V2.D2, V7.D2, V17.D2
	VST1.P [V16.D2, V17.D2], 32(R2)
	SUB  $4, R3
	B    axpy2n64loop4

axpy2n64loop2:
	CMP  $2, R3
	BLT  axpy2n64scalar
	VLD1.P 16(R0), [V4.D2]
	VLD1.P 16(R1), [V6.D2]
	VLD1 (R2), [V16.D2]
	VFMLA V1.D2, V4.D2, V16.D2
	VFMLA V2.D2, V6.D2, V16.D2
	VST1.P [V16.D2], 16(R2)
	SUB  $2, R3

axpy2n64scalar:
	CBZ  R3, axpy2n64done
	FMOVD (R2), F5
	FMOVD (R0), F4
	FMULD F0, F4
	FADDD F4, F5
	FMOVD (R1), F4
	FMULD F3, F4
	FADDD F4, F5
	FMOVD F5, (R2)
	ADD  $8, R0
	ADD  $8, R1
	ADD  $8, R2
	SUB  $1, R3
	B    axpy2n64scalar

axpy2n64done:
	RET

// func axpy2F32(alpha float32, x1 *float32, beta float32, x2, y *float32, n int)
TEXT ·axpy2F32(SB), NOSPLIT, $0-48
	FMOVS alpha+0(FP), F0
	VDUP V0.S[0], V1.S4
	FMOVS beta+16(FP), F3
	VDUP V3.S[0], V2.S4
	MOVD x1+8(FP), R0
	MOVD x2+24(FP), R1
	MOVD y+32(FP), R2
	MOVD n+40(FP), R3

axpy2n32loop8:
	CMP  $8, R3
	BLT  axpy2n32loop4
	VLD1.P 32(R0), [V4.S4, V5.S4]
	VLD1.P 32(R1), [V6.S4, V7.S4]
	VLD1 (R2), [V16.S4, V17.S4]
	VFMLA V1.S4, V4.S4, V16.S4
	VFMLA V1.S4, V5.S4, V17.S4
	VFMLA V2.S4, V6.S4, V16.S4
	VFMLA V2.S4, V7.S4, V17.S4
	VST1.P [V16.S4, V17.S4], 32(R2)
	SUB  $8, R3
	B    axpy2n32loop8

axpy2n32loop4:
	CMP  $4, R3
	BLT  axpy2n32scalar
	VLD1.P 16(R0), [V4.S4]
	VLD1.P 16(R1), [V6.S4]
	VLD1 (R2), [V16.S4]
	VFMLA V1.S4, V4.S4, V16.S4
	VFMLA V2.S4, V6.S4, V16.S4
	VST1.P [V16.S4], 16(R2)
	SUB  $4, R3

axpy2n32scalar:
	CBZ  R3, axpy2n32done
	FMOVS (R2), F5
	FMOVS (R0), F4
	FMULS F0, F4
	FADDS F4, F5
	FMOVS (R1), F4
	FMULS F3, F4
	FADDS F4, F5
	FMOVS F5, (R2)
	ADD  $4, R0
	ADD  $4, R1
	ADD  $4, R2
	SUB  $1, R3
	B    axpy2n32scalar

axpy2n32done:
	RET

// func sumsqF64(x *float64, n int) float64
TEXT ·sumsqF64(SB), NOSPLIT, $0-24
	MOVD x+0(FP), R0
	MOVD n+8(FP), R2
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16

sq64loop8:
	CMP  $8, R2
	BLT  sq64loop2
	VLD1.P 64(R0), [V4.D2, V5.D2, V6.D2, V7.D2]
	VFMLA V4.D2, V4.D2, V0.D2
	VFMLA V5.D2, V5.D2, V1.D2
	VFMLA V6.D2, V6.D2, V2.D2
	VFMLA V7.D2, V7.D2, V3.D2
	SUB  $8, R2
	B    sq64loop8

sq64loop2:
	CMP  $2, R2
	BLT  sq64reduce
	VLD1.P 16(R0), [V4.D2]
	VFMLA V4.D2, V4.D2, V0.D2
	SUB  $2, R2
	B    sq64loop2

sq64reduce:
	VMOV V0.D[0], R4
	FMOVD R4, F1
	VMOV V0.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V1.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V1.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V2.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V2.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V3.D[0], R4
	FMOVD R4, F2
	FADDD F2, F1
	VMOV V3.D[1], R4
	FMOVD R4, F2
	FADDD F2, F1
	CBZ  R2, sq64done

sq64scalar:
	FMOVD (R0), F2
	FMULD F2, F2
	FADDD F2, F1
	ADD  $8, R0
	SUB  $1, R2
	CBNZ R2, sq64scalar

sq64done:
	FMOVD F1, ret+16(FP)
	RET

// func gemmKerF64(k int, a, b *float64, ldb int, c *float64, ldc int)
//
// 4×8 micro-kernel: C[0:4,0:8] += A·B, B's k steps ldb elements apart, C
// loaded into V0–V15 up front so the whole k loop is FMLA-only (2+1 loads,
// 4 VDUP broadcasts, 16 FMLAs per step). Caller guarantees k ≥ 1 and a
// full 4×8 tile.
TEXT ·gemmKerF64(SB), NOSPLIT, $0-48
	MOVD k+0(FP), R4
	MOVD a+8(FP), R0
	MOVD b+16(FP), R1
	MOVD ldb+24(FP), R6
	LSL  $3, R6
	MOVD c+32(FP), R2
	MOVD ldc+40(FP), R3
	LSL  $3, R3

	MOVD R2, R5
	VLD1 (R5), [V0.D2, V1.D2, V2.D2, V3.D2]
	ADD  R3, R5
	VLD1 (R5), [V4.D2, V5.D2, V6.D2, V7.D2]
	ADD  R3, R5
	VLD1 (R5), [V8.D2, V9.D2, V10.D2, V11.D2]
	ADD  R3, R5
	VLD1 (R5), [V12.D2, V13.D2, V14.D2, V15.D2]

gk64loop:
	VLD1 (R1), [V16.D2, V17.D2, V18.D2, V19.D2]
	ADD  R6, R1
	VLD1.P 32(R0), [V20.D2, V21.D2]
	VDUP V20.D[0], V22.D2
	VDUP V20.D[1], V23.D2
	VFMLA V16.D2, V22.D2, V0.D2
	VFMLA V17.D2, V22.D2, V1.D2
	VFMLA V18.D2, V22.D2, V2.D2
	VFMLA V19.D2, V22.D2, V3.D2
	VFMLA V16.D2, V23.D2, V4.D2
	VFMLA V17.D2, V23.D2, V5.D2
	VFMLA V18.D2, V23.D2, V6.D2
	VFMLA V19.D2, V23.D2, V7.D2
	VDUP V21.D[0], V22.D2
	VDUP V21.D[1], V23.D2
	VFMLA V16.D2, V22.D2, V8.D2
	VFMLA V17.D2, V22.D2, V9.D2
	VFMLA V18.D2, V22.D2, V10.D2
	VFMLA V19.D2, V22.D2, V11.D2
	VFMLA V16.D2, V23.D2, V12.D2
	VFMLA V17.D2, V23.D2, V13.D2
	VFMLA V18.D2, V23.D2, V14.D2
	VFMLA V19.D2, V23.D2, V15.D2
	SUB  $1, R4
	CBNZ R4, gk64loop

	MOVD R2, R5
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	ADD  R3, R5
	VST1 [V4.D2, V5.D2, V6.D2, V7.D2], (R5)
	ADD  R3, R5
	VST1 [V8.D2, V9.D2, V10.D2, V11.D2], (R5)
	ADD  R3, R5
	VST1 [V12.D2, V13.D2, V14.D2, V15.D2], (R5)
	RET

// func gemmKerF32(k int, a, b *float32, ldb int, c *float32, ldc int)
//
// 4×16 micro-kernel, the float32 twin of gemmKerF64 (four 4-lane vectors
// per C row).
TEXT ·gemmKerF32(SB), NOSPLIT, $0-48
	MOVD k+0(FP), R4
	MOVD a+8(FP), R0
	MOVD b+16(FP), R1
	MOVD ldb+24(FP), R6
	LSL  $2, R6
	MOVD c+32(FP), R2
	MOVD ldc+40(FP), R3
	LSL  $2, R3

	MOVD R2, R5
	VLD1 (R5), [V0.S4, V1.S4, V2.S4, V3.S4]
	ADD  R3, R5
	VLD1 (R5), [V4.S4, V5.S4, V6.S4, V7.S4]
	ADD  R3, R5
	VLD1 (R5), [V8.S4, V9.S4, V10.S4, V11.S4]
	ADD  R3, R5
	VLD1 (R5), [V12.S4, V13.S4, V14.S4, V15.S4]

gk32loop:
	VLD1 (R1), [V16.S4, V17.S4, V18.S4, V19.S4]
	ADD  R6, R1
	VLD1.P 16(R0), [V20.S4]
	VDUP V20.S[0], V22.S4
	VDUP V20.S[1], V23.S4
	VFMLA V16.S4, V22.S4, V0.S4
	VFMLA V17.S4, V22.S4, V1.S4
	VFMLA V18.S4, V22.S4, V2.S4
	VFMLA V19.S4, V22.S4, V3.S4
	VFMLA V16.S4, V23.S4, V4.S4
	VFMLA V17.S4, V23.S4, V5.S4
	VFMLA V18.S4, V23.S4, V6.S4
	VFMLA V19.S4, V23.S4, V7.S4
	VDUP V20.S[2], V22.S4
	VDUP V20.S[3], V23.S4
	VFMLA V16.S4, V22.S4, V8.S4
	VFMLA V17.S4, V22.S4, V9.S4
	VFMLA V18.S4, V22.S4, V10.S4
	VFMLA V19.S4, V22.S4, V11.S4
	VFMLA V16.S4, V23.S4, V12.S4
	VFMLA V17.S4, V23.S4, V13.S4
	VFMLA V18.S4, V23.S4, V14.S4
	VFMLA V19.S4, V23.S4, V15.S4
	SUB  $1, R4
	CBNZ R4, gk32loop

	MOVD R2, R5
	VST1 [V0.S4, V1.S4, V2.S4, V3.S4], (R5)
	ADD  R3, R5
	VST1 [V4.S4, V5.S4, V6.S4, V7.S4], (R5)
	ADD  R3, R5
	VST1 [V8.S4, V9.S4, V10.S4, V11.S4], (R5)
	ADD  R3, R5
	VST1 [V12.S4, V13.S4, V14.S4, V15.S4], (R5)
	RET
