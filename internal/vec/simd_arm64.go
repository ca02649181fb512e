//go:build arm64 && !noasm

package vec

import "unsafe"

// The NEON backend. Advanced SIMD is architecturally baseline on arm64, so
// unlike amd64 there is no feature probe: the backend is available whenever
// it is compiled in.

const simdArchName = "neon"

const simdArchSupported = true

// NEON runs the base micro-GEMM tile (gemm.go).
func archGemmTile() gemmKernels { return gemmBase }

// Assembly kernels (simd_arm64.s); same contracts as the amd64 ones.

//go:noescape
func dotF64(x, y *float64, n int) float64

//go:noescape
func dotF32(x, y *float32, n int) float32

//go:noescape
func axpyF64(alpha float64, x, y *float64, n int)

//go:noescape
func axpyF32(alpha float32, x, y *float32, n int)

//go:noescape
func axpy2F64(alpha float64, x1 *float64, beta float64, x2, y *float64, n int)

//go:noescape
func axpy2F32(alpha float32, x1 *float32, beta float32, x2, y *float32, n int)

//go:noescape
func sumsqF64(x *float64, n int) float64

//go:noescape
func gemmKerF64(k int, a, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func gemmKerF32(k int, a, b *float32, ldb int, c *float32, ldc int)

// sumsqF32 stays in Go on arm64: the widening accumulate (float32 data,
// float64 sum — the package contract for norms) has no NEON spelling the
// Go assembler accepts, and a scalar widen loses to the generic loop
// anyway. Keeping a Go twin of the amd64 kernel here lets the dispatch
// layer stay architecture-blind.
func sumsqF32(x *float32, n int) float64 {
	xs := unsafe.Slice(x, n)
	var s0, s1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		v0, v1 := float64(xs[i]), float64(xs[i+1])
		s0 += v0 * v0
		s1 += v1 * v1
	}
	if i < n {
		v := float64(xs[i])
		s0 += v * v
	}
	return s0 + s1
}
