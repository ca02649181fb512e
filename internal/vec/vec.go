// Package vec is the shared vector-primitive layer under every tile kernel
// of the tiled QR factorization. All four arithmetic domains (float32,
// float64, complex64, complex128) express their inner loops through these
// generic primitives, so the tuning — 4-way unrolling, bounds-check
// elimination via slice re-slicing, multiple accumulators to break the
// floating-point dependency chain — lives in exactly one place, and the
// real/complex conjugation difference is fused through the Conj hook of
// scalar.go.
//
// Conventions: the destination operand is last; a scaling factor of zero is
// treated as a structural zero (the operation is skipped, matching the
// sparsity guards the kernels used before this layer existed); slices must
// not alias unless a function documents otherwise.
package vec

import (
	"math"
	"unsafe"
)

// Dot returns the unconjugated product Σ x[i]·y[i] (BLAS dot/zdotu), the
// form the T-factor assembly and back-substitution need. len(y) must be
// ≥ len(x). Real inputs long enough to amortize the call dispatch to the
// SIMD backend when it is enabled (simd.go); results then differ from the
// generic path only in rounding (FMA, different accumulation order).
func Dot[T Scalar](x, y []T) T {
	if simdEnabled.Load() && len(x) >= simdMinLen {
		switch xs := any(x).(type) {
		case []float64:
			ys := any(y).([]float64)
			return any(dotF64(&xs[0], &ys[0], len(xs))).(T)
		case []float32:
			ys := any(y).([]float32)
			return any(dotF32(&xs[0], &ys[0], len(xs))).(T)
		}
	}
	return dotGeneric(x, y)
}

func dotGeneric[T Scalar](x, y []T) T {
	n := len(x)
	var s0, s1, s2, s3 T
	if n == 0 {
		return 0
	}
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Dotc returns the conjugated product Σ conj(x[i])·y[i] (BLAS dotc); for
// real types it coincides with Dot.
func Dotc[T Scalar](x, y []T) T {
	if !IsComplex[T]() {
		return Dot(x, y)
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	y = y[:n]
	var s0, s1 T
	i := 0
	for ; i+1 < n; i += 2 {
		s0 += Conj(x[i]) * y[i]
		s1 += Conj(x[i+1]) * y[i+1]
	}
	if i < n {
		s0 += Conj(x[i]) * y[i]
	}
	return s0 + s1
}

// Axpy computes y += α·x over len(x) elements. len(y) must be ≥ len(x).
// α = 0 is a no-op (structural-zero skip — enforced before SIMD dispatch,
// so 0·Inf never manufactures a NaN on either family).
func Axpy[T Scalar](alpha T, x, y []T) {
	if alpha == 0 {
		return
	}
	if simdEnabled.Load() && len(x) >= simdMinLen {
		switch xs := any(x).(type) {
		case []float64:
			ys := any(y).([]float64)
			axpyF64(any(alpha).(float64), &xs[0], &ys[0], len(xs))
			return
		case []float32:
			ys := any(y).([]float32)
			axpyF32(any(alpha).(float32), &xs[0], &ys[0], len(xs))
			return
		}
	}
	axpyGeneric(alpha, x, y)
}

func axpyGeneric[T Scalar](alpha T, x, y []T) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Axpy2 computes y += α·x1 + β·x2 in a single pass, halving the load/store
// traffic on y versus two Axpy calls (the GEMM inner unroll). Each zero
// scalar is a structural zero: its term is skipped entirely.
func Axpy2[T Scalar](alpha T, x1 []T, beta T, x2, y []T) {
	if alpha == 0 {
		Axpy(beta, x2, y)
		return
	}
	if beta == 0 {
		Axpy(alpha, x1, y)
		return
	}
	if simdEnabled.Load() && len(x1) >= simdMinLen {
		switch x1s := any(x1).(type) {
		case []float64:
			x2s, ys := any(x2).([]float64), any(y).([]float64)
			axpy2F64(any(alpha).(float64), &x1s[0], any(beta).(float64), &x2s[0], &ys[0], len(x1s))
			return
		case []float32:
			x2s, ys := any(x2).([]float32), any(y).([]float32)
			axpy2F32(any(alpha).(float32), &x1s[0], any(beta).(float32), &x2s[0], &ys[0], len(x1s))
			return
		}
	}
	axpy2Generic(alpha, x1, beta, x2, y)
}

func axpy2Generic[T Scalar](alpha T, x1 []T, beta T, x2, y []T) {
	n := len(x1)
	if n == 0 {
		return
	}
	x2 = x2[:n]
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] += alpha*x1[i] + beta*x2[i]
		y[i+1] += alpha*x1[i+1] + beta*x2[i+1]
		y[i+2] += alpha*x1[i+2] + beta*x2[i+2]
		y[i+3] += alpha*x1[i+3] + beta*x2[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha*x1[i] + beta*x2[i]
	}
}

// GemvTc accumulates y[0:k] += Σ_{i<m} conj(x[i·incx]) · a[i·lda : i·lda+k]:
// y += Aᵀ·conj(x) for a row-major m×k A, i.e. conj(y) gathers Aᴴ·x (the
// conjugation is the identity in the real domains). It is the W = Vᴴ·c sweep
// of a block reflector applied to a single column c, taken along V's
// contiguous rows: one call per panel, where m separate Axpy calls would pay
// the backend dispatch per row. A zero x element is a structural zero and
// its row is skipped, as in Axpy.
func GemvTc[T Scalar](m, k int, a []T, lda int, x []T, incx int, y []T) {
	if m <= 0 || k <= 0 {
		return
	}
	y = y[:k]
	if simdEnabled.Load() && k >= simdMinLen {
		switch as := any(a).(type) {
		case []float64:
			xs, ys := any(x).([]float64), any(y).([]float64)
			for i := 0; i < m; i++ {
				if xi := xs[i*incx]; xi != 0 {
					row := as[i*lda : i*lda+k]
					axpyF64(xi, &row[0], &ys[0], k)
				}
			}
			return
		case []float32:
			xs, ys := any(x).([]float32), any(y).([]float32)
			for i := 0; i < m; i++ {
				if xi := xs[i*incx]; xi != 0 {
					row := as[i*lda : i*lda+k]
					axpyF32(xi, &row[0], &ys[0], k)
				}
			}
			return
		}
	}
	cc := IsComplex[T]()
	for i := 0; i < m; i++ {
		xi := x[i*incx]
		if xi == 0 {
			continue
		}
		if cc {
			xi = Conj(xi)
		}
		axpyGeneric(xi, a[i*lda:i*lda+k], y)
	}
}

// GemvNSub computes y[i·incy] −= a[i·lda : i·lda+k] · x[0:k] (unconjugated)
// for i < m: y −= A·x for a row-major m×k A. It is the c −= V·w sweep that
// pairs with GemvTc, one Dot per contiguous row of V.
func GemvNSub[T Scalar](m, k int, a []T, lda int, x, y []T, incy int) {
	if m <= 0 || k <= 0 {
		return
	}
	x = x[:k]
	if simdEnabled.Load() && k >= simdMinLen {
		switch as := any(a).(type) {
		case []float64:
			xs, ys := any(x).([]float64), any(y).([]float64)
			for i := 0; i < m; i++ {
				row := as[i*lda : i*lda+k]
				ys[i*incy] -= dotF64(&row[0], &xs[0], k)
			}
			return
		case []float32:
			xs, ys := any(x).([]float32), any(y).([]float32)
			for i := 0; i < m; i++ {
				row := as[i*lda : i*lda+k]
				ys[i*incy] -= dotF32(&row[0], &xs[0], k)
			}
			return
		}
	}
	for i := 0; i < m; i++ {
		y[i*incy] -= dotGeneric(a[i*lda:i*lda+k], x)
	}
}

// Scal computes x *= α in place.
func Scal[T Scalar](alpha T, x []T) {
	n := len(x)
	i := 0
	for ; i+3 < n; i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

// Sub computes y -= x over len(x) elements. len(y) must be ≥ len(x).
func Sub[T Scalar](x, y []T) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] -= x[i]
		y[i+1] -= x[i+1]
		y[i+2] -= x[i+2]
		y[i+3] -= x[i+3]
	}
	for ; i < n; i++ {
		y[i] -= x[i]
	}
}

// AddScaled computes y = α·y + β·x in a single pass (BLAS axpby), fusing the
// scale and first accumulation of the triangular T·W products.
func AddScaled[T Scalar](alpha, beta T, x, y []T) {
	n := len(x)
	if n == 0 {
		return
	}
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		y[i] = alpha*y[i] + beta*x[i]
		y[i+1] = alpha*y[i+1] + beta*x[i+1]
		y[i+2] = alpha*y[i+2] + beta*x[i+2]
		y[i+3] = alpha*y[i+3] + beta*x[i+3]
	}
	for ; i < n; i++ {
		y[i] = alpha*y[i] + beta*x[i]
	}
}

// DotAxpy applies one Householder reflector H = I − τ·(1,v)·(1,v)ᴴ to the
// column (c0; c) in a single fused call, in LAPACK's convention (Hᴴ is
// applied when τ is passed conjugated): w = τ·(c0 + Σ conj(v[i])·c[i]),
// then c -= w·v. It returns w, so the caller finishes with c0 -= w. This is
// the contiguous larf column micro-kernel, for callers holding column-major
// (or packed) data; the row-major tile kernels express the same update as
// row sweeps of Axpy instead.
func DotAxpy[T Scalar](tau, c0 T, v, c []T) (w T) {
	w = tau * (c0 + Dotc(v, c))
	Axpy(-w, v, c)
	return w
}

// Nrm2 returns ‖x‖₂ — for complex types the Euclidean norm of the real and
// imaginary parts interleaved — safe against overflow and underflow with
// exactly one Sqrt total. The sum of squares accumulates in float64 for
// every domain, so the single-precision types get the wider exponent range
// for free. The common case is a single unscaled pass; only when the sum
// lands outside the trustworthy range (over-/underflow or a degenerate
// input) does a scaled LAPACK dnrm2-style two-pass fallback run.
func Nrm2[T Scalar](x []T) float64 {
	if s := sumSquares(x, len(x), 1); nrm2SumOK(s) {
		return math.Sqrt(s)
	}
	return nrm2Scaled(x, len(x), 1)
}

// Nrm2Inc returns the Euclidean norm of the n strided elements
// x[0], x[inc], …, x[(n−1)·inc].
func Nrm2Inc[T Scalar](x []T, n, inc int) float64 {
	if s := sumSquares(x, n, inc); nrm2SumOK(s) {
		return math.Sqrt(s)
	}
	return nrm2Scaled(x, n, inc)
}

// sumSquares accumulates Σ|x[i·inc]|² in float64. The per-domain dispatch
// happens once per call at the slice level: inside generic (gcshape) code
// a per-element hook like Abs2 compiles to a dictionary type switch per
// element, which triples the cost of the reflector-norm pass; one
// assertion followed by a monomorphic loop keeps the norms at hand-written
// speed in every domain.
// For contiguous data (inc == 1) with the SIMD backend enabled, all four
// domains route to the vector sum-of-squares kernels — the complex slices
// by reinterpreting their interleaved re/im layout as a real slice of
// twice the length, which is exact (the sum of |z|² over lanes is the sum
// of squares over components in some order).
func sumSquares[T Scalar](x []T, n, inc int) float64 {
	var s float64
	switch xs := any(x).(type) {
	case []float64:
		if inc == 1 && n >= simdMinLen && simdEnabled.Load() {
			return sumsqF64(&xs[0], n)
		}
		var s0, s1 float64
		i, ix := 0, 0
		if inc == 1 {
			for ; i+1 < n; i += 2 {
				v0, v1 := xs[i], xs[i+1]
				s0 += v0 * v0
				s1 += v1 * v1
			}
			if i < n {
				v := xs[i]
				s0 += v * v
			}
			return s0 + s1
		}
		for ; i < n; i, ix = i+1, ix+inc {
			v := xs[ix]
			s0 += v * v
		}
		return s0
	case []float32:
		if inc == 1 && n >= simdMinLen && simdEnabled.Load() {
			return sumsqF32(&xs[0], n)
		}
		for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
			v := float64(xs[ix])
			s += v * v
		}
	case []complex128:
		if inc == 1 && 2*n >= simdMinLen && simdEnabled.Load() {
			return sumsqF64((*float64)(unsafe.Pointer(&xs[0])), 2*n)
		}
		for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
			re, im := real(xs[ix]), imag(xs[ix])
			s += re*re + im*im
		}
	case []complex64:
		if inc == 1 && 2*n >= simdMinLen && simdEnabled.Load() {
			return sumsqF32((*float32)(unsafe.Pointer(&xs[0])), 2*n)
		}
		for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
			re, im := float64(real(xs[ix])), float64(imag(xs[ix]))
			s += re*re + im*im
		}
	}
	return s
}

// nrm2SumSafe* bracket the sums of squares the single-pass path may trust:
// inside this range neither overflow nor damaging underflow can have
// occurred (squares below ~1e-308 that vanished are negligible against a
// total above 1e-280). Sums are float64 regardless of T, so one bracket
// serves all four domains.
const (
	nrm2SumSafeMax = 1e280
	nrm2SumSafeMin = 1e-280
)

func nrm2SumOK(s float64) bool {
	return s > nrm2SumSafeMin && s < nrm2SumSafeMax
}

// nrm2Scaled is the rare-path norm: finds the magnitude of the largest
// component, divides every component by it (safe even for subnormal
// magnitudes, where multiplying by the inverse would overflow), and
// rescales once at the end. Returns the magnitude itself when it is 0, NaN,
// or ±Inf.
func nrm2Scaled[T Scalar](x []T, n, inc int) float64 {
	amax := 0.0
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
		if av := math.Abs(RealPart(x[ix])); av > amax || math.IsNaN(av) {
			amax = av
		}
		if av := math.Abs(ImagPart(x[ix])); av > amax || math.IsNaN(av) {
			amax = av
		}
	}
	if amax == 0 || math.IsNaN(amax) || math.IsInf(amax, 0) {
		return amax
	}
	var s float64
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
		re, im := RealPart(x[ix])/amax, ImagPart(x[ix])/amax
		s += re*re + im*im
	}
	return amax * math.Sqrt(s)
}
