//go:build !noasm

#include "textflag.h"

// AVX2/FMA kernels for the vec primitives. Shared conventions:
//
//   - unaligned loads/stores (VMOVUPD/VMOVUPS) throughout — tile rows are
//     arbitrary slice offsets and AVX2 has no penalty on aligned data;
//   - multiple independent accumulators in the reduction kernels to break
//     the FMA latency chain, combined only in the epilogue;
//   - every kernel handles all n ≥ 0 itself: a wide unrolled loop, a
//     single-vector loop, then a scalar VEX tail (staying VEX-encoded
//     avoids SSE/AVX transition stalls), so the Go dispatch layer never
//     needs a separate remainder pass;
//   - VZEROUPPER before every return, as required around ABI0 calls.

// func dotF64(x, y *float64, n int) float64
TEXT ·dotF64(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dot64loop16:
	CMPQ CX, $16
	JLT  dot64loop4
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  dot64loop16

dot64loop4:
	CMPQ CX, $4
	JLT  dot64reduce
	VMOVUPD (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  dot64loop4

dot64reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	TESTQ CX, CX
	JE   dot64done

dot64scalar:
	VMOVSD (SI), X4
	VFMADD231SD (DI), X4, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNE  dot64scalar

dot64done:
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func dotF32(x, y *float32, n int) float32
TEXT ·dotF32(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot32loop32:
	CMPQ CX, $32
	JLT  dot32loop8
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  dot32loop32

dot32loop8:
	CMPQ CX, $8
	JLT  dot32reduce
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  dot32loop8

dot32reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	TESTQ CX, CX
	JE   dot32done

dot32scalar:
	VMOVSS (SI), X4
	VFMADD231SS (DI), X4, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNE  dot32scalar

dot32done:
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func axpyF64(alpha float64, x, y *float64, n int)
TEXT ·axpyF64(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

axpy64loop8:
	CMPQ CX, $8
	JLT  axpy64loop4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  axpy64loop8

axpy64loop4:
	CMPQ CX, $4
	JLT  axpy64scalar
	VMOVUPD (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

axpy64scalar:
	TESTQ CX, CX
	JE   axpy64done
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  axpy64scalar

axpy64done:
	VZEROUPPER
	RET

// func axpyF32(alpha float32, x, y *float32, n int)
TEXT ·axpyF32(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX

axpy32loop16:
	CMPQ CX, $16
	JLT  axpy32loop8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VFMADD231PS (SI), Y0, Y1
	VFMADD231PS 32(SI), Y0, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  axpy32loop16

axpy32loop8:
	CMPQ CX, $8
	JLT  axpy32scalar
	VMOVUPS (DI), Y1
	VFMADD231PS (SI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX

axpy32scalar:
	TESTQ CX, CX
	JE   axpy32done
	VMOVSS (DI), X1
	VFMADD231SS (SI), X0, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JMP  axpy32scalar

axpy32done:
	VZEROUPPER
	RET

// func axpy2F64(alpha float64, x1 *float64, beta float64, x2, y *float64, n int)
TEXT ·axpy2F64(SB), NOSPLIT, $0-48
	VBROADCASTSD alpha+0(FP), Y0
	VBROADCASTSD beta+16(FP), Y1
	MOVQ x1+8(FP), SI
	MOVQ x2+24(FP), BX
	MOVQ y+32(FP), DI
	MOVQ n+40(FP), CX

axpy2n64loop8:
	CMPQ CX, $8
	JLT  axpy2n64loop4
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y3
	VFMADD231PD (SI), Y0, Y2
	VFMADD231PD 32(SI), Y0, Y3
	VFMADD231PD (BX), Y1, Y2
	VFMADD231PD 32(BX), Y1, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  axpy2n64loop8

axpy2n64loop4:
	CMPQ CX, $4
	JLT  axpy2n64scalar
	VMOVUPD (DI), Y2
	VFMADD231PD (SI), Y0, Y2
	VFMADD231PD (BX), Y1, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $4, CX

axpy2n64scalar:
	TESTQ CX, CX
	JE   axpy2n64done
	VMOVSD (DI), X2
	VFMADD231SD (SI), X0, X2
	VFMADD231SD (BX), X1, X2
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, BX
	ADDQ $8, DI
	DECQ CX
	JMP  axpy2n64scalar

axpy2n64done:
	VZEROUPPER
	RET

// func axpy2F32(alpha float32, x1 *float32, beta float32, x2, y *float32, n int)
TEXT ·axpy2F32(SB), NOSPLIT, $0-48
	VBROADCASTSS alpha+0(FP), Y0
	VBROADCASTSS beta+16(FP), Y1
	MOVQ x1+8(FP), SI
	MOVQ x2+24(FP), BX
	MOVQ y+32(FP), DI
	MOVQ n+40(FP), CX

axpy2n32loop16:
	CMPQ CX, $16
	JLT  axpy2n32loop8
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VFMADD231PS (SI), Y0, Y2
	VFMADD231PS 32(SI), Y0, Y3
	VFMADD231PS (BX), Y1, Y2
	VFMADD231PS 32(BX), Y1, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  axpy2n32loop16

axpy2n32loop8:
	CMPQ CX, $8
	JLT  axpy2n32scalar
	VMOVUPS (DI), Y2
	VFMADD231PS (SI), Y0, Y2
	VFMADD231PS (BX), Y1, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $8, CX

axpy2n32scalar:
	TESTQ CX, CX
	JE   axpy2n32done
	VMOVSS (DI), X2
	VFMADD231SS (SI), X0, X2
	VFMADD231SS (BX), X1, X2
	VMOVSS X2, (DI)
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ $4, DI
	DECQ CX
	JMP  axpy2n32scalar

axpy2n32done:
	VZEROUPPER
	RET

// func sumsqF64(x *float64, n int) float64
TEXT ·sumsqF64(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

sq64loop16:
	CMPQ CX, $16
	JLT  sq64loop4
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  sq64loop16

sq64loop4:
	CMPQ CX, $4
	JLT  sq64reduce
	VMOVUPD (SI), Y4
	VFMADD231PD Y4, Y4, Y0
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  sq64loop4

sq64reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	TESTQ CX, CX
	JE   sq64done

sq64scalar:
	VMOVSD (SI), X4
	VFMADD231SD X4, X4, X0
	ADDQ $8, SI
	DECQ CX
	JNE  sq64scalar

sq64done:
	VZEROUPPER
	MOVSD X0, ret+16(FP)
	RET

// func sumsqF32(x *float32, n int) float64
//
// Accumulates in float64 (the package contract for norms: single precision
// gets the double exponent range, so a float32 norm can never overflow the
// accumulator) by widening four lanes at a time with VCVTPS2PD.
TEXT ·sumsqF32(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

sq32loop8:
	CMPQ CX, $8
	JLT  sq32loop4
	VMOVUPS (SI), X2
	VMOVUPS 16(SI), X3
	VCVTPS2PD X2, Y2
	VCVTPS2PD X3, Y3
	VFMADD231PD Y2, Y2, Y0
	VFMADD231PD Y3, Y3, Y1
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  sq32loop8

sq32loop4:
	CMPQ CX, $4
	JLT  sq32reduce
	VMOVUPS (SI), X2
	VCVTPS2PD X2, Y2
	VFMADD231PD Y2, Y2, Y0
	ADDQ $16, SI
	SUBQ $4, CX

sq32reduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	TESTQ CX, CX
	JE   sq32done

sq32scalar:
	VMOVSS (SI), X2
	VCVTSS2SD X2, X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $4, SI
	DECQ CX
	JNE  sq32scalar

sq32done:
	VZEROUPPER
	MOVSD X0, ret+16(FP)
	RET

// func gemmKerF64(k int, a, b *float64, ldb int, c *float64, ldc int)
//
// 4×8 register-blocked micro-kernel: C[0:4,0:8] += A·B with A packed as k
// steps of 4 (column of the A strip), B as k steps of 8 (row of the B
// strip) ldb elements apart, C in row-major with stride ldc. The C tile
// rides in 8 ymm accumulators from first load to final store; each k step
// is 2 B loads, 4 A broadcasts and 8 FMAs. Caller guarantees k ≥ 1 and a
// full 4×8 tile.
TEXT ·gemmKerF64(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R10
	SHLQ $3, R10
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8

	MOVQ DX, R9
	VMOVUPD (R9), Y0
	VMOVUPD 32(R9), Y1
	ADDQ R8, R9
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	ADDQ R8, R9
	VMOVUPD (R9), Y4
	VMOVUPD 32(R9), Y5
	ADDQ R8, R9
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7

gk64loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
	ADDQ $32, SI
	ADDQ R10, DI
	DECQ CX
	JNE  gk64loop

	MOVQ DX, R9
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	ADDQ R8, R9
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	ADDQ R8, R9
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	ADDQ R8, R9
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func gemmKerF32(k int, a, b *float32, ldb int, c *float32, ldc int)
//
// 4×16 micro-kernel, the float32 twin of gemmKerF64 (two 8-lane ymm per C
// row).
TEXT ·gemmKerF32(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R10
	SHLQ $2, R10
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8

	MOVQ DX, R9
	VMOVUPS (R9), Y0
	VMOVUPS 32(R9), Y1
	ADDQ R8, R9
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	ADDQ R8, R9
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	ADDQ R8, R9
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7

gk32loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS 4(SI), Y11
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VFMADD231PS Y8, Y11, Y6
	VFMADD231PS Y9, Y11, Y7
	ADDQ $16, SI
	ADDQ R10, DI
	DECQ CX
	JNE  gk32loop

	MOVQ DX, R9
	VMOVUPS Y0, (R9)
	VMOVUPS Y1, 32(R9)
	ADDQ R8, R9
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	ADDQ R8, R9
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	ADDQ R8, R9
	VMOVUPS Y6, (R9)
	VMOVUPS Y7, 32(R9)
	VZEROUPPER
	RET
