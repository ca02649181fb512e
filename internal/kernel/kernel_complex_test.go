package kernel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// The complex-domain tests instantiate the same generic kernels at
// complex128 and pin the LAPACK complex Householder conventions (real β,
// complex τ, Hᴴ applied from the left) that the conjugation hooks must
// reproduce.

func TestComplexGEQRTReconstruction(t *testing.T) {
	cases := []struct{ m, n, ib int }{
		{8, 8, 3}, {8, 8, 8}, {8, 8, 1}, {12, 5, 2}, {5, 12, 4}, {1, 1, 1}, {16, 16, 5},
	}
	for _, c := range cases {
		a0 := tile.RandDense[complex128](c.m, c.n, int64(c.m*100+c.n))
		a := a0.Clone()
		k := min(c.m, c.n)
		tf := make([]complex128, max(1, c.ib)*c.n)
		GEQRT(c.m, c.n, c.ib, a.Data, a.Stride, tf, c.n, nil)
		q := qFromGEQRT(c.m, k, c.ib, a, tf, c.n)
		r := upperTriOf(a)
		if res := tile.ResidualQR(a0, q, r); res > tol {
			t.Errorf("ZGEQRT %dx%d ib=%d: residual %g", c.m, c.n, c.ib, res)
		}
		if ortho := tile.OrthoResidual(q); ortho > tol {
			t.Errorf("ZGEQRT %dx%d ib=%d: orthogonality %g", c.m, c.n, c.ib, ortho)
		}
		// R's diagonal must be real (LAPACK zlarfg convention).
		for i := 0; i < k; i++ {
			if math.Abs(imag(r.At(i, i))) > tol {
				t.Errorf("ZGEQRT %dx%d: R(%d,%d) = %v has imaginary diagonal", c.m, c.n, i, i, r.At(i, i))
			}
		}
	}
}

func checkZTP(t *testing.T, m, n, l, ib int, aTri, b0 *tile.Dense[complex128]) {
	t.Helper()
	a := aTri.Clone()
	b := b0.Clone()
	tf := make([]complex128, max(1, min(max(ib, 1), n))*n)
	TPQRT(m, n, l, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nil)

	// Qᴴ·[A0; B0] = [R; 0].
	c1 := aTri.Clone()
	c2 := b0.Clone()
	TPMQRT(true, m, n, l, ib, b.Data, b.Stride, tf, n, c1.Data, c1.Stride, c2.Data, c2.Stride, n, nil)
	if d := tile.MaxAbsDiff(c1, upperTriOf(a)); d > tol {
		t.Errorf("ZTPQRT m=%d n=%d l=%d ib=%d: top differs from R by %g", m, n, l, ib, d)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < pentRows(m, l, j); i++ {
			if cmplx.Abs(c2.At(i, j)) > tol {
				t.Errorf("ZTPQRT m=%d n=%d l=%d: B(%d,%d) not annihilated: %v", m, n, l, i, j, c2.At(i, j))
			}
		}
	}

	// Round trip Q·Qᴴ.
	x1 := tile.RandDense[complex128](n, n, 7)
	x2 := randPent[complex128](m, n, l, 8)
	y1, y2 := x1.Clone(), x2.Clone()
	TPMQRT(true, m, n, l, ib, b.Data, b.Stride, tf, n, y1.Data, y1.Stride, y2.Data, y2.Stride, n, nil)
	TPMQRT(false, m, n, l, ib, b.Data, b.Stride, tf, n, y1.Data, y1.Stride, y2.Data, y2.Stride, n, nil)
	if d := tile.MaxAbsDiff(y1, x1); d > tol {
		t.Errorf("ZTPQRT m=%d n=%d l=%d: round trip top error %g", m, n, l, d)
	}
	if d := tile.MaxAbsDiff(y2, x2); d > tol {
		t.Errorf("ZTPQRT m=%d n=%d l=%d: round trip bottom error %g", m, n, l, d)
	}
}

func TestComplexTSQRT(t *testing.T) {
	for _, c := range []struct{ m, n, ib int }{{8, 8, 3}, {8, 8, 8}, {5, 8, 2}, {8, 5, 4}, {1, 1, 1}} {
		checkZTP(t, c.m, c.n, 0, c.ib, randUpperTri[complex128](c.n, 11), tile.RandDense[complex128](c.m, c.n, 12))
	}
}

func TestComplexTTQRT(t *testing.T) {
	for _, c := range []struct{ m, n, ib int }{{8, 8, 3}, {8, 8, 1}, {5, 8, 2}, {1, 1, 1}, {16, 16, 4}} {
		l := min(c.m, c.n)
		checkZTP(t, c.m, c.n, l, c.ib, randUpperTri[complex128](c.n, 21), randPent[complex128](c.m, c.n, l, 22))
	}
}

func TestComplexTPQRTGeneralPentagon(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 20; iter++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		l := rng.Intn(min(m, n) + 1)
		ib := 1 + rng.Intn(n)
		checkZTP(t, m, n, l, ib, randUpperTri[complex128](n, int64(iter)), randPent[complex128](m, n, l, int64(iter+100)))
	}
}

// ttqrtLowerUntouched plants a huge sentinel below B's triangle and
// requires TTQRT neither to write it nor to let it reach A, B's triangle or
// T — at a small tile and at nb=64/ib=16, where the panel sweeps run on the
// real vector kernels and the trailing update on the GEMM head.
func ttqrtLowerUntouched[T vec.Scalar](t *testing.T, sentinel T) {
	for _, sh := range []struct{ n, ib int }{{6, 2}, {64, 16}} {
		n, ib := sh.n, sh.ib
		a := randUpperTri[T](n, 31)
		b := randPent[T](n, n, n, 32)
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				b.Set(i, j, sentinel)
			}
		}
		tf := make([]T, ib*n)
		TPQRT(n, n, n, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nil)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i > j {
					if b.At(i, j) != sentinel {
						t.Fatalf("n=%d: TTQRT touched B(%d,%d) below the trapezoid", n, i, j)
					}
				} else if !(vec.Abs(b.At(i, j)) < 1e6 && vec.Abs(a.At(i, j)) < 1e6) {
					t.Fatalf("n=%d: a sentinel below B's triangle reached (%d,%d)", n, i, j)
				}
			}
		}
		for _, v := range tf {
			if !(vec.Abs(v) < 1e6) {
				t.Fatalf("n=%d: a sentinel below B's triangle reached T", n)
			}
		}
	}
}

func TestComplexTTQRTDoesNotTouchLowerTriangle(t *testing.T) {
	eachFamily(t, func(t *testing.T) {
		t.Run("z", func(t *testing.T) { ttqrtLowerUntouched[complex128](t, complex(9e299, -9e299)) })
		t.Run("c", func(t *testing.T) { ttqrtLowerUntouched[complex64](t, complex(9e29, -9e29)) })
	})
}

func TestComplexLarfgMakesBetaReal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(8)
		a := tile.RandDense[complex128](n, 1, int64(iter))
		orig := a.Clone()
		beta, tau := larfg(a.Data[0], a.Data[1:])
		if math.Abs(imag(beta)) > tol {
			t.Fatalf("iter %d: β = %v not real", iter, beta)
		}
		// |β| = ‖x‖.
		var norm2 float64
		for i := 0; i < n; i++ {
			v := orig.At(i, 0)
			norm2 += real(v)*real(v) + imag(v)*imag(v)
		}
		if tau == 0 {
			continue
		}
		if math.Abs(real(beta)*real(beta)-norm2) > tol*math.Max(norm2, 1) {
			t.Fatalf("iter %d: β² = %g, ‖x‖² = %g", iter, real(beta)*real(beta), norm2)
		}
		// Hᴴ·x = β·e₁ with H = I − τ·v·vᴴ.
		// The tail now holds v below its implicit unit.
		v := make([]complex128, n)
		v[0] = 1
		for i := 1; i < n; i++ {
			v[i] = a.At(i, 0)
		}
		var vhx complex128
		for i := 0; i < n; i++ {
			vhx += cmplx.Conj(v[i]) * orig.At(i, 0)
		}
		for i := 0; i < n; i++ {
			hx := orig.At(i, 0) - cmplx.Conj(tau)*v[i]*vhx
			var want complex128
			if i == 0 {
				want = beta
			}
			if cmplx.Abs(hx-want) > tol {
				t.Fatalf("iter %d: (Hᴴx)[%d] = %v, want %v", iter, i, hx, want)
			}
		}
	}
}

// TestSinglePrecisionKernels runs the reconstruction check at float32 and
// complex64: residual and orthogonality must reach single-precision levels.
func TestSinglePrecisionKernels(t *testing.T) {
	const tol32 = 5e-5
	{
		a0 := tile.RandDense[float32](16, 12, 3)
		a := a0.Clone()
		tf := make([]float32, 4*12)
		GEQRT(16, 12, 4, a.Data, a.Stride, tf, 12, nil)
		q := qFromGEQRT(16, 12, 4, a, tf, 12)
		if res := tile.ResidualQR(a0, q, upperTriOf(a)); res > tol32 {
			t.Errorf("float32 GEQRT residual %g", res)
		}
		if ortho := tile.OrthoResidual(q); ortho > tol32 {
			t.Errorf("float32 GEQRT orthogonality %g", ortho)
		}
	}
	{
		a0 := tile.RandDense[complex64](12, 12, 4)
		a := a0.Clone()
		tf := make([]complex64, 3*12)
		GEQRT(12, 12, 3, a.Data, a.Stride, tf, 12, nil)
		q := qFromGEQRT(12, 12, 3, a, tf, 12)
		if res := tile.ResidualQR(a0, q, upperTriOf(a)); res > tol32 {
			t.Errorf("complex64 GEQRT residual %g", res)
		}
		if ortho := tile.OrthoResidual(q); ortho > tol32 {
			t.Errorf("complex64 GEQRT orthogonality %g", ortho)
		}
	}
	// TS and TT elimination chains at float32.
	aTri := randUpperTri[float32](8, 41)
	b := tile.RandDense[float32](8, 8, 42)
	a := aTri.Clone()
	bb := b.Clone()
	tf := make([]float32, 3*8)
	TPQRT(8, 8, 0, 3, a.Data, a.Stride, bb.Data, bb.Stride, tf, 8, nil)
	c1 := aTri.Clone()
	c2 := b.Clone()
	TPMQRT(true, 8, 8, 0, 3, bb.Data, bb.Stride, tf, 8, c1.Data, c1.Stride, c2.Data, c2.Stride, 8, nil)
	if d := tile.MaxAbsDiff(c1, upperTriOf(a)); d > tol32 {
		t.Errorf("float32 TSQRT top differs from R by %g", d)
	}
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if d := float64(c2.At(i, j)); math.Abs(d) > tol32 {
				t.Errorf("float32 TSQRT B(%d,%d) not annihilated: %g", i, j, d)
			}
		}
	}
}
