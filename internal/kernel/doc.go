// Package kernel implements the sequential tile kernels of the tiled QR
// factorization (Table 1 of Bouwmeester, Jacquelin, Langou, Robert,
// "Tiled QR factorization algorithms", 2011), generic over all four
// arithmetic domains (float32, float64, complex64, complex128):
//
//	GEQRT  — factor a square/rectangular tile into Q·R           (weight 4)
//	TSQRT  — zero a square tile using the triangle on top of it  (weight 6)
//	TTQRT  — zero a triangular tile with a triangle on top       (weight 2)
//	UNMQR  — apply a GEQRT transformation to a trailing tile     (weight 6)
//	TSMQR  — apply a TSQRT transformation to a trailing pair     (weight 12)
//	TTMQR  — apply a TTQRT transformation to a trailing pair     (weight 6)
//
// Weights are in units of nb³/3 floating-point operations (4 real flops per
// complex flop in the complex domains).
//
// As in LAPACK, TSQRT and TTQRT are the l=0 and l=n instances of the
// pentagonal factorization TPQRT, and TSMQR/TTMQR are instances of TPMQRT;
// this package implements the general pentagonal kernels, so ragged edge
// tiles (shorter last tile row / narrower last tile column) are supported.
//
// All kernels follow LAPACK's compact-WY representation with inner blocking
// parameter ib: reflectors are processed in panels of ib columns and each
// panel's triangular factor T is stored in an ib×n array. Matrices are
// row-major with an explicit leading dimension (row stride).
//
// The factor kernels (GEQRT, TPQRT) alternate two phases per panel. The
// panel factorization (geqrt2, tpqrt2) is Level-2 work on a tall, thin
// block — m rows by at most ib columns — whose every vector (the column a
// reflector is generated from, the reflector, the columns it updates) runs
// down the row-major tile at stride lda. It therefore works on a
// column-contiguous copy: gather the panel into the idle micro-GEMM pack
// region of the workspace (for TPQRT only each column's structural rows),
// run larfg, the in-panel update and the T-column products as sweeps over
// contiguous columns of length ~m (vec.Nrm2/Scal, vec.ReflectCols,
// vec.DotcCols), scatter back. Sweeping the rows in place instead is the
// same flops as ~2·m primitive calls per reflector on vectors of at most ib
// elements — under the SIMD dispatch length half the time, and dominated by
// call dispatch the rest — where the column form makes ~ib calls on vectors
// of length ~m; the two transposing copies cost 2·ib·m element moves
// against ~2·ib²·m flops. In the complex domains those sweeps run on the
// real vector kernels: each reflector v gets one rotated copy i·v
// (vec.TimesI) in the workspace, and over the interleaved (re, im) view
// vᴴc = dot(v, c) + i·dot(i·v, c) and c −= w·v is one real axpy2.
//
// The trailing update inside the tile (applyPanel, applyPentPanel) is the
// Level-3 phase and is shared with the apply kernels. One rule serves every
// domain: the panel's structural V rows — the unit-lower head or the TT
// staircase as well as the bulk — are copied into the workspace,
// zero-padded, so that each sweep is one packed GEMM over every row, and
// T·W one more on a zero-padded copy of T. The micro-GEMM reads the
// sweeps' other operand (C, then T·W) in place in the real domains and
// packs only A, so the padded head costs one small copy per panel. Its
// tile is 4×8 reals in double (4×16 in single), 4×16 (4×32) on AVX-512F,
// where a last strip of half that width or less runs on the 4×8 (4×16)
// kernel; at nb = 64 and 128 every in-tile product is whole strips. The
// block-reflector sweeps along C's rows on the vector primitives remain
// the fallback when the micro-GEMM declines (backend off, short scratch).
//
// Householder conventions match LAPACK: H = I − τ·v·vᴴ with v[0] = 1 and a
// real β, the factorization applies Hᴴ from the left, Q = H₁·H₂···H_k. In
// the real domains the conjugations degenerate to the familiar
// H = I − τ·v·vᵀ; one generic implementation serves both because every
// real/complex difference is funneled through the vec.Conj /
// vec.FromParts hooks, which compile to straight-line code per
// instantiation. The paper evaluates double complex alongside double
// because the computation-to-communication ratio is four times higher in
// complex arithmetic (Section 4); the single-precision instantiations halve
// the memory traffic instead.
package kernel
