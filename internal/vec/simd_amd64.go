//go:build amd64 && !noasm

package vec

// The AVX2/FMA backend. Detection is hand-rolled CPUID (the module is
// dependency-free, so x/sys/cpu is not an option): the backend needs AVX2
// and FMA, plus OSXSAVE with XMM+YMM state enabled in XCR0 — without the
// OS half, executing VEX-256 instructions faults even on capable silicon.
//
// A host that also has AVX-512F, with the opmask and zmm state enabled in
// XCR0 as well, runs the packed products on the wide micro-tile (gemm.go);
// every other kernel, and the backend's name, stay AVX2's.

const simdArchName = "avx2"

var simdArchSupported = cpuHasAVX2FMA()

// gemmWide is the AVX-512F tile: float64 4×16, float32 4×32, with the
// base tile's kernels for a narrow last strip.
var gemmWide = gemmKernels{f64: gemmKerF64x16, half64: gemmKerF64, f32: gemmKerF32x32, half32: gemmKerF32,
	nr64: 16, nr32: 32}

// hasAVX512F reports whether gemmWide can run on this host.
var hasAVX512F = simdArchSupported && cpuHasAVX512F()

func archGemmTile() gemmKernels {
	if hasAVX512F {
		return gemmWide
	}
	return gemmBase
}

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

// cpuHasAVX512F reports AVX-512F (CPUID leaf 7 EBX bit 16) with XCR0's
// SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state (bits 1, 2, 5, 6, 7) all
// OS-enabled. Callers check cpuHasAVX2FMA first, which has already found
// leaf 7 and OSXSAVE.
func cpuHasAVX512F() bool {
	xlo, _ := xgetbv0()
	if xlo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512FBit = 1 << 16
	return ebx7&avx512FBit != 0
}

// Implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// Assembly kernels (simd_amd64.s). All take base pointers plus an element
// count and handle every n ≥ 0 internally, including scalar tails; callers
// guarantee only that the pointed-to arrays hold n readable (and, for
// destinations, writable) elements. The gemm micro-kernels are the
// exception: they require k ≥ 1 and full mr×nr tiles, and read B's k
// steps ldb elements apart (see gemm.go); the x16/x32 ones also require
// AVX-512F (hasAVX512F).

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

//go:noescape
func gemmKerF64x16(k int, a, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func gemmKerF32x32(k int, a, b *float32, ldb int, c *float32, ldc int)
