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

import "math"

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
// real types it coincides with Dot. The complex domains dispatch once, at
// the slice level, to a monomorphic loop: a per-element Conj hook inside
// generic (gcshape) code compiles to a dictionary type switch per element
// (see sumSquares). Those loops are scalar: the imaginary part of xᴴy
// needs the rotated copy i·x, which only the multi-column forms
// (ReflectCols, DotcCols) are handed, so the complex panel sweeps run
// there on the real vector kernels and Dotc is their generic fallback.
func Dotc[T Scalar](x, y []T) T {
	switch xs := any(x).(type) {
	case []complex128:
		return any(dotcC128(xs, any(y).([]complex128))).(T)
	case []complex64:
		return any(dotcC64(xs, any(y).([]complex64))).(T)
	}
	return Dot(x, y)
}

// dotcC128 and dotcC64 are deliberate twins (the real/imag builtins do not
// apply to type parameters): four real accumulators, one per partial
// product of the conjugated multiply, so no complex multiply is formed and
// the four add chains run side by side. (Unrolling to eight accumulators
// measured slower — the loop then spills.)
func dotcC128(x, y []complex128) complex128 {
	y = y[:len(x)]
	var rr, ii, ri, ir float64
	for i, xv := range x {
		yv := y[i]
		rr += real(xv) * real(yv)
		ii += imag(xv) * imag(yv)
		ri += real(xv) * imag(yv)
		ir += imag(xv) * real(yv)
	}
	return complex(rr+ii, ri-ir)
}

func dotcC64(x, y []complex64) complex64 {
	y = y[:len(x)]
	var rr, ii, ri, ir float32
	for i, xv := range x {
		yv := y[i]
		rr += real(xv) * real(yv)
		ii += imag(xv) * imag(yv)
		ri += real(xv) * imag(yv)
		ir += imag(xv) * real(yv)
	}
	return complex(rr+ii, ri-ir)
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
// the contiguous larf column micro-kernel; ReflectCols is the same update
// over a run of columns.
func DotAxpy[T Scalar](tau, c0 T, v, c []T) (w T) {
	w = tau * (c0 + Dotc(v, c))
	Axpy(-w, v, c)
	return w
}

// TimesI sets iv[i] = i·v[i] over len(v) elements and returns iv[:len(v)]:
// the rotated copy of a complex reflector that ReflectCols and DotcCols run
// their SIMD sweeps on. Viewing the interleaved (re, im) pairs as a real
// vector of twice the length, vᴴc = dot(v, c) + i·dot(i·v, c), and
// c −= w·v is the one real axpy2 c −= Re w·v + Im w·(i·v), so the complex
// sweeps run on the real kernels with no complex multiply per element. It
// returns nil — and those sweeps then keep the generic loops — in the real
// domains (whose sweeps need no copy), with the vector backend off, or
// when v is too short to amortize the dispatch. This is the complex
// sweeps' dispatch point: build the copy once per reflector and hand the
// result to every sweep over that reflector. len(iv) ≥ len(v).
func TimesI[T Scalar](v, iv []T) []T {
	n := len(v)
	if !simdEnabled.Load() || 2*n < simdMinLen {
		return nil
	}
	switch vs := any(v).(type) {
	case []complex128:
		ivs := any(iv).([]complex128)[:n]
		for i, x := range vs {
			ivs[i] = complex(-imag(x), real(x))
		}
	case []complex64:
		ivs := any(iv).([]complex64)[:n]
		for i, x := range vs {
			ivs[i] = complex(-imag(x), real(x))
		}
	default:
		return nil
	}
	return iv[:n]
}

// ReflectCols applies one Householder reflector to nc columns held
// contiguously at stride ldc — DotAxpy over a run of columns, paying the
// backend dispatch once per reflector instead of twice per column. Column
// y is the pair (c0[y·inc0]; c[y·ldc : y·ldc+len(v)]): its head element,
// which meets the reflector's implicit unit, may live apart from its tail
// (inc0 = 1 when the heads form a row of another array). Both are updated
// in place. iv is TimesI(v, ·): with it, the complex domains run each
// column as two real dots and one real axpy2 over the interleaved view;
// nil keeps their generic loops. The real domains ignore it.
func ReflectCols[T Scalar](tau T, v, iv, c0 []T, inc0 int, c []T, ldc, nc int) {
	n := len(v)
	switch vs := any(v).(type) {
	case []float64:
		if simdEnabled.Load() && n >= simdMinLen {
			reflectCols(dotF64, axpyF64, any(tau).(float64), vs, any(c0).([]float64), inc0, any(c).([]float64), ldc, nc)
			return
		}
	case []float32:
		if simdEnabled.Load() && n >= simdMinLen {
			reflectCols(dotF32, axpyF32, any(tau).(float32), vs, any(c0).([]float32), inc0, any(c).([]float32), ldc, nc)
			return
		}
	case []complex128:
		if iv != nil {
			t := any(tau).(complex128)
			reflectColsZ(dotF64, axpy2F64, real(t), imag(t), realView[float64](vs), realView[float64](iv),
				realView[float64](c0), inc0, realView[float64](c), ldc, nc)
			return
		}
	case []complex64:
		if iv != nil {
			t := any(tau).(complex64)
			reflectColsZ(dotF32, axpy2F32, real(t), imag(t), realView[float32](vs), realView[float32](iv),
				realView[float32](c0), inc0, realView[float32](c), ldc, nc)
			return
		}
	}
	for y := 0; y < nc; y++ {
		c0[y*inc0] -= DotAxpy(tau, c0[y*inc0], v, c[y*ldc:y*ldc+n])
	}
}

// reflectCols is ReflectCols for one real type over that type's vector
// kernels; len(v) ≥ 1.
func reflectCols[F float32 | float64](dot func(x, y *F, n int) F, axpy func(alpha F, x, y *F, n int),
	tau F, v, c0 []F, inc0 int, c []F, ldc, nc int) {
	n := len(v)
	for y := 0; y < nc; y++ {
		col := c[y*ldc : y*ldc+n]
		w := tau * (c0[y*inc0] + dot(&v[0], &col[0], n))
		c0[y*inc0] -= w
		axpy(-w, &v[0], &col[0], n)
	}
}

// reflectColsZ is ReflectCols for one complex type over the real views of
// its operands (F the component type; strides still count complex
// elements): per column, w = τ·(c0 + dot(v, c) + i·dot(iv, c)), then
// c0 −= w and c −= Re w·v + Im w·iv.
func reflectColsZ[F float32 | float64](dot func(x, y *F, n int) F,
	axpy2 func(alpha F, x1 *F, beta F, x2, y *F, n int),
	tr, ti F, v, iv, c0 []F, inc0 int, c []F, ldc, nc int) {
	n := len(v)
	for y := 0; y < nc; y++ {
		col := c[2*y*ldc : 2*y*ldc+n]
		h := c0[2*y*inc0 : 2*y*inc0+2]
		sr := h[0] + dot(&v[0], &col[0], n)
		si := h[1] + dot(&iv[0], &col[0], n)
		wr, wi := tr*sr-ti*si, tr*si+ti*sr
		h[0] -= wr
		h[1] -= wi
		axpy2(-wr, &v[0], -wi, &iv[0], &col[0], n)
	}
}

// DotcCols sets z[y] = Σ conj(c[y·ldc+i])·v[i] for y < nc: Dotc of each of
// nc columns held contiguously at stride ldc with the one vector v, under a
// single backend dispatch. These are the products v_yᴴ·v a panel's
// triangular T factor is assembled from. iv is as for ReflectCols: with
// it, each complex product is the two real dots dot(v, c) − i·dot(iv, c)
// over the interleaved view.
func DotcCols[T Scalar](v, iv, c []T, ldc, nc int, z []T) {
	n := len(v)
	z = z[:nc]
	switch vs := any(v).(type) {
	case []float64:
		if simdEnabled.Load() && n >= simdMinLen {
			dotCols(dotF64, vs, any(c).([]float64), ldc, any(z).([]float64))
			return
		}
	case []float32:
		if simdEnabled.Load() && n >= simdMinLen {
			dotCols(dotF32, vs, any(c).([]float32), ldc, any(z).([]float32))
			return
		}
	case []complex128:
		if iv != nil {
			dotcColsZ(dotF64, realView[float64](vs), realView[float64](iv), realView[float64](c), ldc,
				realView[float64](z))
			return
		}
	case []complex64:
		if iv != nil {
			dotcColsZ(dotF32, realView[float32](vs), realView[float32](iv), realView[float32](c), ldc,
				realView[float32](z))
			return
		}
	}
	for y := range z {
		z[y] = Dotc(c[y*ldc:y*ldc+n], v)
	}
}

// dotCols is DotcCols for one real type over that type's dot kernel;
// len(v) ≥ 1.
func dotCols[F float32 | float64](dot func(x, y *F, n int) F, v, c []F, ldc int, z []F) {
	n := len(v)
	for y := range z {
		col := c[y*ldc : y*ldc+n]
		z[y] = dot(&col[0], &v[0], n)
	}
}

// dotcColsZ is DotcCols for one complex type over the real views of its
// operands (z's too); strides still count complex elements.
func dotcColsZ[F float32 | float64](dot func(x, y *F, n int) F, v, iv, c []F, ldc int, z []F) {
	n := len(v)
	for y := 0; y < len(z)/2; y++ {
		col := c[2*y*ldc : 2*y*ldc+n]
		z[2*y] = dot(&v[0], &col[0], n)
		z[2*y+1] = -dot(&iv[0], &col[0], n)
	}
}

// Nrm2 returns ‖x‖₂ — for complex types the Euclidean norm of the real and
// imaginary parts interleaved — safe against overflow and underflow with
// exactly one Sqrt total. The sum of squares accumulates in float64 for
// every domain, so the single-precision types get the wider exponent range
// for free. The common case is a single unscaled pass; only when the sum
// lands outside the trustworthy range (over-/underflow or a degenerate
// input) does a scaled LAPACK dnrm2-style two-pass fallback run.
func Nrm2[T Scalar](x []T) float64 {
	if s := sumSquares(x); nrm2SumOK(s) {
		return math.Sqrt(s)
	}
	return nrm2Scaled(x)
}

// sumSquares accumulates Σ|x[i]|² in float64. The per-domain dispatch
// happens once per call at the slice level: inside generic (gcshape) code
// a per-element hook like Abs2 compiles to a dictionary type switch per
// element, which triples the cost of the reflector-norm pass; one
// assertion followed by a monomorphic loop keeps the norms at hand-written
// speed in every domain.
// With the SIMD backend enabled, all four domains route to the vector
// sum-of-squares kernels — the complex slices by reinterpreting their
// interleaved re/im layout as a real slice of twice the length, which is
// exact (the sum of |z|² over lanes is the sum of squares over components
// in some order).
func sumSquares[T Scalar](x []T) float64 {
	n := len(x)
	var s float64
	switch xs := any(x).(type) {
	case []float64:
		if n >= simdMinLen && simdEnabled.Load() {
			return sumsqF64(&xs[0], n)
		}
		var s0, s1 float64
		i := 0
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
	case []float32:
		if n >= simdMinLen && simdEnabled.Load() {
			return sumsqF32(&xs[0], n)
		}
		for _, v32 := range xs {
			v := float64(v32)
			s += v * v
		}
	case []complex128:
		if 2*n >= simdMinLen && simdEnabled.Load() {
			return sumsqF64(&realView[float64](xs)[0], 2*n)
		}
		for _, v := range xs {
			re, im := real(v), imag(v)
			s += re*re + im*im
		}
	case []complex64:
		if 2*n >= simdMinLen && simdEnabled.Load() {
			return sumsqF32(&realView[float32](xs)[0], 2*n)
		}
		for _, v := range xs {
			re, im := float64(real(v)), float64(imag(v))
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
func nrm2Scaled[T Scalar](x []T) float64 {
	amax := 0.0
	for _, v := range x {
		if av := math.Abs(RealPart(v)); av > amax || math.IsNaN(av) {
			amax = av
		}
		if av := math.Abs(ImagPart(v)); av > amax || math.IsNaN(av) {
			amax = av
		}
	}
	if amax == 0 || math.IsNaN(amax) || math.IsInf(amax, 0) {
		return amax
	}
	var s float64
	for _, v := range x {
		re, im := RealPart(v)/amax, ImagPart(v)/amax
		s += re*re + im*im
	}
	return amax * math.Sqrt(s)
}
