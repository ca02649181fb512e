//go:build noasm || (!amd64 && !arm64)

package vec

// No vector backend in this build: either the `noasm` tag excluded the
// assembly, or the target architecture has none. simdEnabled can never be
// set, so the kernel stubs below are unreachable; they exist only so the
// dispatch layer compiles identically everywhere.

const simdArchName = ""

const simdArchSupported = false

// archGemmTile is the base tile: GemmPackLen sizes by it, though no product
// runs on it in this build.
func archGemmTile() gemmKernels { return gemmBase }

func unreachableKernel() { panic("vec: SIMD kernel called without a backend") }

func dotF64(x, y *float64, n int) float64 { unreachableKernel(); return 0 }

func dotF32(x, y *float32, n int) float32 { unreachableKernel(); return 0 }

func axpyF64(alpha float64, x, y *float64, n int) { unreachableKernel() }

func axpyF32(alpha float32, x, y *float32, n int) { unreachableKernel() }

func axpy2F64(alpha float64, x1 *float64, beta float64, x2, y *float64, n int) {
	unreachableKernel()
}

func axpy2F32(alpha float32, x1 *float32, beta float32, x2, y *float32, n int) {
	unreachableKernel()
}

func sumsqF64(x *float64, n int) float64 { unreachableKernel(); return 0 }

func sumsqF32(x *float32, n int) float64 { unreachableKernel(); return 0 }

func gemmKerF64(k int, a, b *float64, ldb int, c *float64, ldc int) { unreachableKernel() }

func gemmKerF32(k int, a, b *float32, ldb int, c *float32, ldc int) { unreachableKernel() }
