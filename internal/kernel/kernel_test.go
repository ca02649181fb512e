package kernel

import (
	"math"
	"math/rand"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

const tol = 1e-11

// qFromGEQRT reconstructs the explicit m×m orthogonal (unitary) factor of a
// GEQRT factorization by applying Q to the identity.
func qFromGEQRT[T vec.Scalar](m, k, ib int, v *tile.Dense[T], t []T, ldt int) *tile.Dense[T] {
	q := tile.Identity[T](m)
	UNMQR(false, m, k, ib, v.Data, v.Stride, t, ldt, q.Data, q.Stride, m, nil)
	return q
}

// upperTriOf returns the upper triangle/trapezoid of a (the R factor),
// zeroing everything below the diagonal.
func upperTriOf[T vec.Scalar](a *tile.Dense[T]) *tile.Dense[T] {
	r := a.Clone()
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < min(i, r.Cols); j++ {
			r.Set(i, j, 0)
		}
	}
	return r
}

func TestGEQRTReconstruction(t *testing.T) {
	cases := []struct{ m, n, ib int }{
		{8, 8, 4}, {8, 8, 3}, {8, 8, 8}, {8, 8, 1},
		{12, 5, 2}, {5, 12, 4}, {1, 1, 1}, {7, 1, 1}, {1, 6, 2},
		{16, 16, 5}, {30, 17, 8},
	}
	for _, c := range cases {
		a0 := tile.RandDense[float64](c.m, c.n, int64(c.m*100+c.n))
		a := a0.Clone()
		k := min(c.m, c.n)
		tf := make([]float64, max(1, c.ib)*c.n)
		GEQRT(c.m, c.n, c.ib, a.Data, a.Stride, tf, c.n, nil)
		q := qFromGEQRT(c.m, k, c.ib, a, tf, c.n)
		r := upperTriOf(a)
		if res := tile.ResidualQR(a0, q, r); res > tol {
			t.Errorf("GEQRT %dx%d ib=%d: residual %g", c.m, c.n, c.ib, res)
		}
		if ortho := tile.OrthoResidual(q); ortho > tol {
			t.Errorf("GEQRT %dx%d ib=%d: orthogonality %g", c.m, c.n, c.ib, ortho)
		}
	}
}

func TestGEQRTTransAppliesQT(t *testing.T) {
	m, n, ib := 10, 6, 3
	a0 := tile.RandDense[float64](m, n, 5)
	a := a0.Clone()
	tf := make([]float64, ib*n)
	GEQRT(m, n, ib, a.Data, a.Stride, tf, n, nil)
	// Qᵀ·A0 must equal R.
	c := a0.Clone()
	UNMQR(true, m, n, ib, a.Data, a.Stride, tf, n, c.Data, c.Stride, n, nil)
	r := upperTriOf(a)
	if d := tile.MaxAbsDiff(c, tile.Mul(tile.Identity[float64](m), r)); d > tol {
		t.Errorf("QᵀA differs from R by %g", d)
	}
}

func TestGEQRTInnerBlockingInvariance(t *testing.T) {
	m, n := 20, 20
	a0 := tile.RandDense[float64](m, n, 9)
	var ref *tile.Dense[float64]
	for _, ib := range []int{1, 2, 3, 5, 7, 20} {
		a := a0.Clone()
		tf := make([]float64, ib*n)
		GEQRT(m, n, ib, a.Data, a.Stride, tf, n, nil)
		r := upperTriOf(a)
		if ref == nil {
			ref = r
			continue
		}
		if d := tile.MaxAbsDiff(ref, r); d > tol {
			t.Errorf("ib=%d: R differs from ib=1 reference by %g", ib, d)
		}
	}
}

func TestGEQRTZeroMatrix(t *testing.T) {
	m, n := 6, 4
	a := tile.NewDense[float64](m, n)
	tf := make([]float64, 2*n)
	GEQRT(m, n, 2, a.Data, a.Stride, tf, n, nil)
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("GEQRT of zero matrix must remain zero")
		}
	}
}

// tpFactor runs TPQRT on copies of a triangular top and pentagonal bottom,
// returning the updated triangle (R), the reflectors, and T.
func tpFactor[T vec.Scalar](tb testing.TB, m, n, l, ib int, a0tri, b0 *tile.Dense[T]) (r, v *tile.Dense[T], tf []T) {
	tb.Helper()
	a := a0tri.Clone()
	b := b0.Clone()
	tf = make([]T, max(1, min(ib, n))*n)
	TPQRT(m, n, l, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nil)
	return a, b, tf
}

// checkTP verifies a TPQRT factorization by applying Qᵀ to the original
// stacked pair and checking [R; 0], then round-tripping Q·Qᵀ.
func checkTP[T vec.Scalar](t *testing.T, m, n, l, ib int, a0tri, b0 *tile.Dense[T]) {
	t.Helper()
	r, v, tf := tpFactor(t, m, n, l, ib, a0tri, b0)
	ibn := min(max(ib, 1), n)

	// Qᵀ·[A0; B0] = [R; 0] (within the pentagonal region of B).
	c1 := a0tri.Clone()
	c2 := b0.Clone()
	TPMQRT(true, m, n, l, ib, v.Data, v.Stride, tf, n,
		c1.Data, c1.Stride, c2.Data, c2.Stride, n, nil)
	if d := tile.MaxAbsDiff(c1, upperTriOf(r)); d > tol {
		t.Errorf("TPQRT m=%d n=%d l=%d ib=%d: Qᵀ[A;B] top differs from R by %g", m, n, l, ibn, d)
	}
	for j := 0; j < n; j++ {
		p := pentRows(m, l, j)
		for i := 0; i < p; i++ {
			if vec.Abs(c2.At(i, j)) > tol {
				t.Errorf("TPQRT m=%d n=%d l=%d ib=%d: B(%d,%d) not annihilated: %v",
					m, n, l, ibn, i, j, c2.At(i, j))
			}
		}
	}

	// Round trip: Q·(Qᵀ·[X1; X2]) = [X1; X2] for random X.
	x1 := tile.RandDense[T](n, n, 77)
	x2 := tile.RandDense[T](m, n, 78)
	// Zero X2 outside the pentagonal region so the structured kernel's
	// untouched region stays consistent.
	for j := 0; j < n; j++ {
		for i := pentRows(m, l, j); i < m; i++ {
			x2.Set(i, j, 0)
		}
	}
	y1, y2 := x1.Clone(), x2.Clone()
	TPMQRT(true, m, n, l, ib, v.Data, v.Stride, tf, n, y1.Data, y1.Stride, y2.Data, y2.Stride, n, nil)
	TPMQRT(false, m, n, l, ib, v.Data, v.Stride, tf, n, y1.Data, y1.Stride, y2.Data, y2.Stride, n, nil)
	if d := tile.MaxAbsDiff(y1, x1); d > tol {
		t.Errorf("TPQRT m=%d n=%d l=%d ib=%d: Q·Qᵀ round trip top error %g", m, n, l, ibn, d)
	}
	if d := tile.MaxAbsDiff(y2, x2); d > tol {
		t.Errorf("TPQRT m=%d n=%d l=%d ib=%d: Q·Qᵀ round trip bottom error %g", m, n, l, ibn, d)
	}
}

func randUpperTri[T vec.Scalar](n int, seed int64) *tile.Dense[T] {
	return upperTriOf(tile.RandDense[T](n, n, seed))
}

// randPent returns an m×n matrix that is zero outside the pentagonal region
// with trapezoid height l.
func randPent[T vec.Scalar](m, n, l int, seed int64) *tile.Dense[T] {
	b := tile.RandDense[T](m, n, seed)
	for j := 0; j < n; j++ {
		for i := pentRows(m, l, j); i < m; i++ {
			b.Set(i, j, 0)
		}
	}
	return b
}

func TestTSQRT(t *testing.T) {
	for _, c := range []struct{ m, n, ib int }{
		{8, 8, 3}, {8, 8, 8}, {5, 8, 2}, {8, 5, 4}, {1, 1, 1}, {3, 7, 7}, {16, 16, 4},
	} {
		checkTP(t, c.m, c.n, 0, c.ib, randUpperTri[float64](c.n, 11), tile.RandDense[float64](c.m, c.n, 12))
	}
}

func TestTTQRT(t *testing.T) {
	for _, c := range []struct{ m, n, ib int }{
		{8, 8, 3}, {8, 8, 8}, {8, 8, 1}, {5, 8, 2}, {1, 1, 1}, {16, 16, 4},
	} {
		l := min(c.m, c.n)
		checkTP(t, c.m, c.n, l, c.ib, randUpperTri[float64](c.n, 21), randPent[float64](c.m, c.n, l, 22))
	}
}

func TestTPQRTGeneralPentagon(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 30; iter++ {
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		l := rng.Intn(min(m, n) + 1)
		ib := 1 + rng.Intn(n)
		checkTP(t, m, n, l, ib, randUpperTri[float64](n, int64(iter)), randPent[float64](m, n, l, int64(iter+100)))
	}
}

// TestTTQRTDoesNotTouchLowerTriangle verifies the region discipline the DAG
// scheduler relies on: TTQRT and TTMQR must never read or write B's entries
// below the trapezoid (they hold the eliminated tile's own GEQRT vectors,
// possibly being read concurrently by UNMQR).
func TestTTQRTDoesNotTouchLowerTriangle(t *testing.T) {
	const n, ib = 8, 3
	const sentinel = 1e300
	aTri := randUpperTri[float64](n, 31)
	b := randPent[float64](n, n, n, 32)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			b.Set(i, j, sentinel)
		}
	}
	a := aTri.Clone()
	tf := make([]float64, ib*n)
	TPQRT(n, n, n, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nil)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if b.At(i, j) != sentinel {
				t.Fatalf("TTQRT touched B(%d,%d) below the trapezoid", i, j)
			}
		}
	}
	// The apply kernel must also leave those entries alone in V and never
	// produce NaN/Inf in C (which it would if it read the sentinels).
	c1 := tile.RandDense[float64](n, n, 33)
	c2 := tile.RandDense[float64](n, n, 34)
	TPMQRT(true, n, n, n, ib, b.Data, b.Stride, tf, n, c1.Data, c1.Stride, c2.Data, c2.Stride, n, nil)
	for _, v := range append(append([]float64{}, c1.Data...), c2.Data...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("TTMQR read sentinel values outside the trapezoid")
		}
	}
}

// TestTPQRTDoesNotTouchTopLowerTriangle verifies TPQRT never references the
// strictly lower triangle of the top tile A (it holds the pivot tile's own
// GEQRT Householder vectors).
func TestTPQRTDoesNotTouchTopLowerTriangle(t *testing.T) {
	const n, m, ib = 6, 6, 2
	const sentinel = -7e299
	a := randUpperTri[float64](n, 41)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			a.Set(i, j, sentinel)
		}
	}
	b := tile.RandDense[float64](m, n, 42)
	tf := make([]float64, ib*n)
	TPQRT(m, n, 0, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nil)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if a.At(i, j) != sentinel {
				t.Fatalf("TPQRT touched A(%d,%d) below the diagonal", i, j)
			}
		}
	}
	for _, v := range b.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("TPQRT read sentinel values from A's lower triangle")
		}
	}
}

func TestTPQRTInnerBlockingInvariance(t *testing.T) {
	m, n := 12, 12
	aTri := randUpperTri[float64](n, 51)
	b := tile.RandDense[float64](m, n, 52)
	var ref *tile.Dense[float64]
	for _, ib := range []int{1, 2, 4, 5, 12} {
		r, _, _ := tpFactor(t, m, n, 0, ib, aTri, b)
		if ref == nil {
			ref = r
			continue
		}
		if d := tile.MaxAbsDiff(upperTriOf(ref), upperTriOf(r)); d > tol {
			t.Errorf("TSQRT ib=%d: R differs from ib=1 reference by %g", ib, d)
		}
	}
}

// TestTwoTileColumnMatchesDenseQR factors a 2-tile column with both the TS
// and TT kernel chains and checks the resulting R (up to column signs)
// against a direct dense QR of the stacked matrix.
func TestTwoTileColumnMatchesDenseQR(t *testing.T) {
	const nb, ib = 6, 3
	top0 := tile.RandDense[float64](nb, nb, 61)
	bot0 := tile.RandDense[float64](nb, nb, 62)

	// Reference: GEQRT of the stacked 2nb×nb matrix.
	stack := tile.NewDense[float64](2*nb, nb)
	for i := 0; i < nb; i++ {
		copy(stack.Data[i*nb:(i+1)*nb], top0.Data[i*nb:(i+1)*nb])
		copy(stack.Data[(nb+i)*nb:(nb+i+1)*nb], bot0.Data[i*nb:(i+1)*nb])
	}
	tf := make([]float64, ib*nb)
	GEQRT(2*nb, nb, ib, stack.Data, stack.Stride, tf, nb, nil)
	refR := upperTriOf(stack.View(0, 0, nb, nb))

	absDiff := func(a, b *tile.Dense[float64]) float64 {
		var m float64
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				d := math.Abs(math.Abs(a.At(i, j)) - math.Abs(b.At(i, j)))
				if d > m {
					m = d
				}
			}
		}
		return m
	}

	// TS chain: GEQRT(top), TSQRT(bottom).
	top := top0.Clone()
	bot := bot0.Clone()
	t1 := make([]float64, ib*nb)
	GEQRT(nb, nb, ib, top.Data, top.Stride, t1, nb, nil)
	t2 := make([]float64, ib*nb)
	TSQRT(nb, nb, ib, top.Data, top.Stride, bot.Data, bot.Stride, t2, nb, nil)
	if d := absDiff(upperTriOf(top), refR); d > tol {
		t.Errorf("TS chain |R| differs from dense |R| by %g", d)
	}

	// TT chain: GEQRT(top), GEQRT(bottom), TTQRT.
	top = top0.Clone()
	bot = bot0.Clone()
	GEQRT(nb, nb, ib, top.Data, top.Stride, t1, nb, nil)
	t3 := make([]float64, ib*nb)
	GEQRT(nb, nb, ib, bot.Data, bot.Stride, t3, nb, nil)
	TTQRT(nb, nb, ib, top.Data, top.Stride, bot.Data, bot.Stride, t2, nb, nil)
	if d := absDiff(upperTriOf(top), refR); d > tol {
		t.Errorf("TT chain |R| differs from dense |R| by %g", d)
	}
}

func TestUNMQRNoReflectorsIsIdentity(t *testing.T) {
	c0 := tile.RandDense[float64](4, 4, 71)
	c := c0.Clone()
	UNMQR(true, 4, 0, 1, nil, 1, nil, 1, c.Data, c.Stride, 4, nil)
	if tile.MaxAbsDiff(c, c0) != 0 {
		t.Error("UNMQR with k=0 modified C")
	}
}

func TestLarfgZeroTail(t *testing.T) {
	a := tile.NewDense[float64](4, 1)
	a.Set(0, 0, 3)
	beta, tau := larfg(a.Data[0], a.Data[1:])
	if tau != 0 || beta != 3 {
		t.Errorf("beta, tau = %g, %g, want 3, 0 for zero tail", beta, tau)
	}
	if a.At(1, 0) != 0 || a.At(2, 0) != 0 || a.At(3, 0) != 0 {
		t.Errorf("zero tail modified: %v", a.Data)
	}
}

func TestLarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(8)
		a := tile.RandDense[float64](n, 1, int64(iter))
		orig := a.Clone()
		var tau float64
		a.Data[0], tau = larfg(a.Data[0], a.Data[1:])
		// Reconstruct H·x and verify it equals [β; 0]; the tail now holds
		// v below its implicit unit.
		v := make([]float64, n)
		v[0] = 1
		for i := 1; i < n; i++ {
			v[i] = a.At(i, 0)
		}
		var vx float64
		for i := 0; i < n; i++ {
			vx += v[i] * orig.At(i, 0)
		}
		for i := 0; i < n; i++ {
			hx := orig.At(i, 0) - tau*v[i]*vx
			want := 0.0
			if i == 0 {
				want = a.At(0, 0)
			}
			if math.Abs(hx-want) > tol {
				t.Fatalf("iter %d: (Hx)[%d] = %g, want %g", iter, i, hx, want)
			}
		}
		// β² must equal ‖x‖² (norm preservation).
		beta := a.At(0, 0)
		var norm2 float64
		for i := 0; i < n; i++ {
			norm2 += orig.At(i, 0) * orig.At(i, 0)
		}
		if math.Abs(beta*beta-norm2) > tol*norm2 {
			t.Fatalf("iter %d: β² = %g, ‖x‖² = %g", iter, beta*beta, norm2)
		}
	}
}
