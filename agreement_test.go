package tiledqr

import (
	"math"
	"math/cmplx"
	"testing"
)

// Cross-domain agreement: all four precisions run the same generic engine,
// so factoring the same data must give the same R (up to per-row reflector
// signs) — exactly across the real/complex boundary at equal precision, and
// to single-precision accuracy across the 64/32-bit boundary. These tests
// sweep every parameter-free algorithm and both kernel families.

// tol32 is the single-precision agreement tolerance (~1e-5 relative, with
// headroom for the O(n) accumulation of rounding over the test shapes).
const tol32 = 2e-4

// agreementOpts enumerates the parameter-free algorithm × kernel-family
// grid of the agreement suite.
func agreementOpts() []Options {
	var opts []Options
	for _, alg := range Algorithms {
		for _, kern := range []Kernels{TT, TS} {
			opts = append(opts, Options{Algorithm: alg, Kernels: kern, TileSize: 8, InnerBlock: 3, Workers: 2})
		}
	}
	return opts
}

// rowSign returns the per-row sign aligning r's row i with the reference:
// both conventions keep a real diagonal, but independent runs may flip
// whole reflector rows.
func rowSign(refDiag, diag float64) float64 {
	if (refDiag < 0) != (diag < 0) {
		return -1
	}
	return 1
}

// TestComplexPathReproducesRealR factors a real-valued matrix through the
// complex128 path and checks that R matches the float64 path's R to 1e-12
// (up to row signs) — the two instantiations run literally the same
// generic code, so the complex arithmetic on zero imaginary parts must not
// drift.
func TestComplexPathReproducesRealR(t *testing.T) {
	const m, n = 40, 24
	a := RandomDense(m, n, 7)
	za := NewMat[complex128](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			za.Set(i, j, complex(a.At(i, j), 0))
		}
	}
	for _, opt := range agreementOpts() {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatalf("%v/%v: %v", opt.Algorithm, opt.Kernels, err)
		}
		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatalf("%v/%v complex: %v", opt.Algorithm, opt.Kernels, err)
		}
		r, zr := f.R(), zf.R()
		for i := 0; i < r.Rows; i++ {
			s := rowSign(r.At(i, i), real(zr.At(i, i)))
			for j := i; j < n; j++ {
				zv := zr.At(i, j)
				if math.Abs(imag(zv)) > 1e-12 {
					t.Fatalf("%v/%v: complex R(%d,%d)=%v has imaginary part on real data",
						opt.Algorithm, opt.Kernels, i, j, zv)
				}
				if d := math.Abs(r.At(i, j) - s*real(zv)); d > 1e-12 {
					t.Fatalf("%v/%v: R(%d,%d) real %g vs complex %g (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, r.At(i, j), s*real(zv), d)
				}
			}
		}
	}
}

// TestComplexPathReproducesRealLS runs the same cross-domain check through
// least squares, where row signs cancel: the complex path's solution of a
// real system must match the real path's to 1e-12.
func TestComplexPathReproducesRealLS(t *testing.T) {
	const m, n, nrhs = 40, 16, 2
	a := RandomDense(m, n, 9)
	b := RandomDense(m, nrhs, 10)
	za, zb := NewMat[complex128](m, n), NewMat[complex128](m, nrhs)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			za.Set(i, j, complex(a.At(i, j), 0))
		}
		for j := 0; j < nrhs; j++ {
			zb.Set(i, j, complex(b.At(i, j), 0))
		}
	}
	for _, opt := range agreementOpts() {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.SolveLS(b)
		if err != nil {
			t.Fatal(err)
		}
		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatal(err)
		}
		zx, err := zf.SolveLS(zb)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < nrhs; j++ {
				if d := cmplx.Abs(complex(x.At(i, j), 0) - zx.At(i, j)); d > 1e-12 {
					t.Fatalf("%v/%v: x(%d,%d) real %g vs complex %v", opt.Algorithm, opt.Kernels, i, j, x.At(i, j), zx.At(i, j))
				}
			}
		}
	}
}

// TestFloat32AgreesWithFloat64 factors the float32 rounding of a float64
// matrix and checks R agreement to single precision across the full
// algorithm × kernel grid.
func TestFloat32AgreesWithFloat64(t *testing.T) {
	const m, n = 40, 24
	a := RandomDense(m, n, 11)
	a32 := NewMat[float32](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a32.Set(i, j, float32(a.At(i, j)))
		}
	}
	scale := FrobeniusNormOf(a)
	for _, opt := range agreementOpts() {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		f32, err := FactorOf(nil, a32, opt)
		if err != nil {
			t.Fatalf("%v/%v float32: %v", opt.Algorithm, opt.Kernels, err)
		}
		r, r32 := f.R(), f32.R()
		for i := 0; i < r.Rows; i++ {
			s := rowSign(r.At(i, i), float64(r32.At(i, i)))
			for j := i; j < n; j++ {
				if d := math.Abs(r.At(i, j) - s*float64(r32.At(i, j))); d > tol32*scale {
					t.Fatalf("%v/%v: R(%d,%d) double %g vs single %g (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, r.At(i, j), s*float64(r32.At(i, j)), d)
				}
			}
		}
	}
}

// TestComplex64AgreesWithComplex128 is the complex half of the
// single-vs-double agreement sweep.
func TestComplex64AgreesWithComplex128(t *testing.T) {
	const m, n = 32, 16
	za := RandomMat[complex128](m, n, 13)
	ca := NewMat[complex64](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := za.At(i, j)
			ca.Set(i, j, complex(float32(real(v)), float32(imag(v))))
		}
	}
	scale := FrobeniusNormOf(za)
	for _, opt := range agreementOpts() {
		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := FactorOf(nil, ca, opt)
		if err != nil {
			t.Fatalf("%v/%v complex64: %v", opt.Algorithm, opt.Kernels, err)
		}
		zr, cr := zf.R(), cf.R()
		for i := 0; i < zr.Rows; i++ {
			s := complex(rowSign(real(zr.At(i, i)), float64(real(cr.At(i, i)))), 0)
			for j := i; j < n; j++ {
				cv := cr.At(i, j)
				d := cmplx.Abs(zr.At(i, j) - s*complex(float64(real(cv)), float64(imag(cv))))
				if d > tol32*scale {
					t.Fatalf("%v/%v: R(%d,%d) double %v vs single %v (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, zr.At(i, j), cv, d)
				}
			}
		}
	}
}

// checkFactorization32 mirrors checkFactorization for the float32 path.
func checkFactorization32(t *testing.T, m, n int, opt Options) {
	t.Helper()
	a := RandomMat[float32](m, n, int64(m*1000+n))
	f, err := FactorOf(nil, a, opt)
	if err != nil {
		t.Fatalf("%v/%v %dx%d nb=%d: %v", opt.Algorithm, opt.Kernels, m, n, opt.TileSize, err)
	}
	q := f.Q()
	r := f.R()
	rFull := NewMat[float32](m, n)
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < n; j++ {
			rFull.Set(i, j, r.At(i, j))
		}
	}
	if res := QRResidualOf(a, q, rFull); res > tol32 {
		t.Errorf("%v/%v %dx%d: float32 residual %g", opt.Algorithm, opt.Kernels, m, n, res)
	}
	if ortho := OrthoResidualOf(q); ortho > tol32 {
		t.Errorf("%v/%v %dx%d: float32 orthogonality %g", opt.Algorithm, opt.Kernels, m, n, ortho)
	}
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < min(i, r.Cols); j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("float32 R(%d,%d) = %g below the diagonal", i, j, r.At(i, j))
			}
		}
	}
}

// checkCFactorization mirrors checkFactorization for the complex64 path.
func checkCFactorization(t *testing.T, m, n int, opt Options) {
	t.Helper()
	a := RandomMat[complex64](m, n, int64(m*1000+n))
	f, err := FactorOf(nil, a, opt)
	if err != nil {
		t.Fatalf("%v/%v %dx%d nb=%d: %v", opt.Algorithm, opt.Kernels, m, n, opt.TileSize, err)
	}
	q := f.Q()
	r := f.R()
	rFull := NewMat[complex64](m, n)
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < n; j++ {
			rFull.Set(i, j, r.At(i, j))
		}
	}
	if res := QRResidualOf(a, q, rFull); res > tol32 {
		t.Errorf("%v/%v %dx%d: complex64 residual %g", opt.Algorithm, opt.Kernels, m, n, res)
	}
	if ortho := OrthoResidualOf(q); ortho > tol32 {
		t.Errorf("%v/%v %dx%d: complex64 orthogonality %g", opt.Algorithm, opt.Kernels, m, n, ortho)
	}
}

// TestFactor32AllAlgorithms runs the float32 public API through the same
// agreement suite as the float64 domain: every parameter-free algorithm,
// both kernel families.
func TestFactor32AllAlgorithms(t *testing.T) {
	for _, opt := range agreementOpts() {
		checkFactorization32(t, 40, 24, opt)
	}
}

// TestCFactorAllAlgorithms runs the complex64 public API through the full
// agreement suite.
func TestCFactorAllAlgorithms(t *testing.T) {
	for _, opt := range agreementOpts() {
		checkCFactorization(t, 32, 16, opt)
	}
}

// TestFactor32Shapes covers ragged edges, wide matrices and degenerate
// shapes at float32, mirroring TestFactorShapes.
func TestFactor32Shapes(t *testing.T) {
	shapes := [][2]int{{37, 21}, {8, 8}, {5, 5}, {7, 50}, {16, 1}, {1, 16}, {1, 1}}
	for _, s := range shapes {
		opt := Options{Algorithm: Greedy, TileSize: 8, InnerBlock: 3, Workers: 2}
		checkFactorization32(t, s[0], s[1], opt)
	}
}

// TestFactor32SolveLS checks single-precision least squares against the
// double-precision solution on the same (rounded) data.
func TestFactor32SolveLS(t *testing.T) {
	const m, n = 48, 12
	a := RandomDense(m, n, 21)
	b := RandomDense(m, 1, 22)
	a32, b32 := NewMat[float32](m, n), NewMat[float32](m, 1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a32.Set(i, j, float32(a.At(i, j)))
		}
		b32.Set(i, 0, float32(b.At(i, 0)))
	}
	f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := FactorOf(nil, a32, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	x32, err := f32.SolveLS(b32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// LS solutions amplify rounding by the conditioning; random normal
		// systems here are well-conditioned, so 1e-3 is comfortable.
		if d := math.Abs(x.At(i, 0) - float64(x32.At(i, 0))); d > 1e-3 {
			t.Fatalf("x(%d) double %g vs single %g", i, x.At(i, 0), x32.At(i, 0))
		}
	}
}

// TestStream32MatchesFactor32 checks the float32 streaming path against a
// one-shot FactorOf over the same rows (up to row signs), and the complex64
// stream likewise.
func TestStream32MatchesFactor32(t *testing.T) {
	const n, rows, batch = 16, 48, 12
	a := RandomMat[float32](rows, n, 31)
	s, err := NewStreamOf[float32](n, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < rows; r0 += batch {
		view := NewMat[float32](batch, n)
		for i := 0; i < batch; i++ {
			for j := 0; j < n; j++ {
				view.Set(i, j, a.At(r0+i, j))
			}
		}
		if err := s.AppendRows(view); err != nil {
			t.Fatal(err)
		}
	}
	f, err := FactorOf(nil, a, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	fr := f.R()
	for i := 0; i < n; i++ {
		sgn := float32(rowSign(float64(fr.At(i, i)), float64(sr.At(i, i))))
		for j := i; j < n; j++ {
			if d := math.Abs(float64(fr.At(i, j) - sgn*sr.At(i, j))); d > tol32*float64(FrobeniusNormOf(a)) {
				t.Fatalf("stream R(%d,%d) %g vs factor %g", i, j, sr.At(i, j), fr.At(i, j))
			}
		}
	}

	ca := RandomMat[complex64](rows, n, 32)
	cs, err := NewStreamOf[complex64](n, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < rows; r0 += batch {
		view := NewMat[complex64](batch, n)
		for i := 0; i < batch; i++ {
			for j := 0; j < n; j++ {
				view.Set(i, j, ca.At(r0+i, j))
			}
		}
		if err := cs.AppendRows(view); err != nil {
			t.Fatal(err)
		}
	}
	cf, err := FactorOf(nil, ca, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	csr, err := cs.R()
	if err != nil {
		t.Fatal(err)
	}
	cfr := cf.R()
	for i := 0; i < n; i++ {
		sgn := complex(float32(rowSign(float64(real(cfr.At(i, i))), float64(real(csr.At(i, i))))), 0)
		for j := i; j < n; j++ {
			d := cfr.At(i, j) - sgn*csr.At(i, j)
			if cmplx.Abs(complex128(complex(real(d), imag(d)))) > tol32*FrobeniusNormOf(ca) {
				t.Fatalf("complex64 stream R(%d,%d) %v vs factor %v", i, j, csr.At(i, j), cfr.At(i, j))
			}
		}
	}
}
