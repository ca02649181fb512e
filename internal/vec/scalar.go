package vec

import (
	"math"
	"math/cmplx"
)

// Scalar is the set of arithmetic domains the tiled QR stack supports: the
// paper's double and double complex (Section 4) plus the single-precision
// variants that halve memory traffic. Every layer above — kernels, tiles,
// the factorization engine, the streaming core — is generic over this one
// constraint; the handful of operations that differ between the real and
// complex domains (conjugation, modulus, component access) go through the
// hook functions below, which compile to straight-line code per
// instantiation because each scalar type is its own GC shape.
//
// The constraint deliberately lists exact types (no ~): the hooks dispatch
// with type switches, which would silently miss defined types.
type Scalar interface {
	float32 | float64 | complex64 | complex128
}

// Conj returns the complex conjugate of v; for real types it is the
// identity. Fusing conjugation into the shared kernels this way is what
// lets one implementation serve both Householder conventions (H = I − τvvᵀ
// and H = I − τvvᴴ).
func Conj[T Scalar](v T) T {
	switch x := any(v).(type) {
	case complex64:
		return any(complex(real(x), -imag(x))).(T)
	case complex128:
		return any(cmplx.Conj(x)).(T)
	}
	return v
}

// Abs returns the modulus |v| as a float64.
func Abs[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case float32:
		return math.Abs(float64(x))
	case float64:
		return math.Abs(x)
	case complex64:
		return math.Hypot(float64(real(x)), float64(imag(x)))
	case complex128:
		return cmplx.Abs(x)
	}
	return 0
}

// Abs2 returns |v|², accumulated in float64 so the single-precision types
// square without intermediate overflow.
func Abs2[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case float32:
		f := float64(x)
		return f * f
	case float64:
		return x * x
	case complex64:
		re, im := float64(real(x)), float64(imag(x))
		return re*re + im*im
	case complex128:
		re, im := real(x), imag(x)
		return re*re + im*im
	}
	return 0
}

// RealPart returns the real component of v as a float64.
func RealPart[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case float32:
		return float64(x)
	case float64:
		return x
	case complex64:
		return float64(real(x))
	case complex128:
		return real(x)
	}
	return 0
}

// ImagPart returns the imaginary component of v as a float64 (0 for the
// real types).
func ImagPart[T Scalar](v T) float64 {
	switch x := any(v).(type) {
	case complex64:
		return float64(imag(x))
	case complex128:
		return imag(x)
	}
	return 0
}

// FromParts builds a T from float64 components. The real types drop im
// (callers only pass a nonzero im for genuinely complex values, which the
// real domains never produce).
func FromParts[T Scalar](re, im float64) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(float32(re)).(T)
	case float64:
		return any(re).(T)
	case complex64:
		return any(complex(float32(re), float32(im))).(T)
	case complex128:
		return any(complex(re, im)).(T)
	}
	return z
}

// IsComplex reports whether T is one of the complex domains.
func IsComplex[T Scalar]() bool {
	var z T
	switch any(z).(type) {
	case complex64, complex128:
		return true
	}
	return false
}

// Precision identifies which of the four scalar domains a type parameter
// is, as an index 0..3 in BLAS order s, d, c, z — the one answer to "which
// of s/d/c/z is T" that per-domain pools, worker scratch slots, the fault
// injector's prec= filter, the serve precision tags and the dist wire
// header all share.
type Precision int

// Prec returns T's precision identity.
func Prec[T Scalar]() Precision {
	switch any((*T)(nil)).(type) {
	case *float32:
		return 0
	case *float64:
		return 1
	case *complex64:
		return 2
	default: // *complex128
		return 3
	}
}

// Tag returns the BLAS-style precision letter: "s", "d", "c" or "z".
func (p Precision) Tag() string { return "sdcz"[p : p+1] }
