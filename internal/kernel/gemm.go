package kernel

import "tiledqr/internal/vec"

// GEMM computes C += A·B for row-major blocks: A is m×kk, B is kk×n, C is
// m×n. It is the reference kernel of Figures 4 and 5 of the paper: the
// update kernels' speeds are compared against plain matrix multiplication
// at the same tile size. work may be nil or micro-GEMM pack scratch
// (length ≥ vec.GemmPackLen for the shape routes the product through the
// packed SIMD path in every domain, the complex ones in the 1m layout;
// WorkLen(n, ib) covers any n×n×n product). Without it — or with the
// generic family — the inner dimension is consumed two rows of B at a time
// (vec.Axpy2), halving the load/store traffic on each row of C.
func GEMM[T vec.Scalar](m, n, kk int, a []T, lda int, b []T, ldb int, c []T, ldc int, work []T) {
	if vec.GemmNN(m, n, kk, T(1), a, lda, b, ldb, c, ldc, work) {
		return
	}
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		ai := a[i*lda : i*lda+kk]
		l := 0
		for ; l+1 < kk; l += 2 {
			vec.Axpy2(ai[l], b[l*ldb:l*ldb+n], ai[l+1], b[(l+1)*ldb:(l+1)*ldb+n], ci)
		}
		if l < kk {
			vec.Axpy(ai[l], b[l*ldb:l*ldb+n], ci)
		}
	}
}
