//go:build amd64 && !noasm

package vec

// The AVX2/FMA backend. Detection is hand-rolled CPUID (the module is
// dependency-free, so x/sys/cpu is not an option): the backend needs AVX2
// and FMA, plus OSXSAVE with XMM+YMM state enabled in XCR0 — without the
// OS half, executing VEX-256 instructions faults even on capable silicon.

const simdArchName = "avx2"

var simdArchSupported = cpuHasAVX2FMA()

func cpuHasAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// Implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// Assembly kernels (simd_amd64.s). All take base pointers plus an element
// count and handle every n ≥ 0 internally, including scalar tails; callers
// guarantee only that the pointed-to arrays hold n readable (and, for
// destinations, writable) elements. The gemm micro-kernels are the
// exception: they require k ≥ 1 and full mr×nr tiles, and read B's k
// steps ldb elements apart (see gemm.go).

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
func sumsqF32(x *float32, n int) float64

//go:noescape
func gemmKerF64(k int, a, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func gemmKerF32(k int, a, b *float32, ldb int, c *float32, ldc int)
