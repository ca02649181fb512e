package vec

import (
	"math"
	"math/rand"
	"testing"
)

// lengths covers the empty vector, every unroll remainder (1–7), the exact
// unroll width, and a few longer sizes.
var lengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64, 100}

func randSlice(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// refDot is the naive reference the unrolled Dot must match exactly in
// exact-arithmetic cases; for random data we allow reassociation slack.
func refDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// pinGeneric forces the generic kernel family for one test: the bit-exact
// reference checks below define the semantics of the portable loops, which
// the SIMD family intentionally does not reproduce bit for bit (FMA,
// different accumulation order). The SIMD family is held to ULP-level
// agreement against these same loops by simd_test.go.
func pinGeneric(t *testing.T) {
	t.Helper()
	prev := SIMDEnabled()
	SetSIMD(false)
	t.Cleanup(func() { SetSIMD(prev) })
}

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-12*math.Max(scale, 1)
}

func TestDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lengths {
		x, y := randSlice(n, rng), randSlice(n, rng)
		if got, want := Dot(x, y), refDot(x, y); !almostEq(got, want) {
			t.Errorf("n=%d: Dot=%g want %g", n, got, want)
		}
	}
	// Exact-arithmetic check: small integers must match bit for bit despite
	// the four-accumulator reassociation.
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	y := []float64{7, 6, 5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 84 {
		t.Errorf("integer Dot=%g want 84", got)
	}
}

func TestAxpy(t *testing.T) {
	pinGeneric(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		for _, alpha := range []float64{0, 1, -2.5} {
			x, y := randSlice(n, rng), randSlice(n, rng)
			want := append([]float64(nil), y...)
			for i := range want {
				want[i] += alpha * x[i]
			}
			Axpy(alpha, x, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("n=%d α=%g: Axpy[%d]=%g want %g", n, alpha, i, y[i], want[i])
				}
			}
		}
	}
}

func TestAxpyDestLongerThanX(t *testing.T) {
	// The contract is len(y) ≥ len(x): elements past len(x) are untouched.
	x := []float64{1, 2}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 30 {
		t.Errorf("Axpy touched beyond len(x): %v", y)
	}
}

func TestAxpy2(t *testing.T) {
	pinGeneric(t)
	rng := rand.New(rand.NewSource(4))
	for _, n := range lengths {
		for _, ab := range [][2]float64{{0, 0}, {2, 0}, {0, -1}, {1.5, -2.5}} {
			x1, x2, y := randSlice(n, rng), randSlice(n, rng), randSlice(n, rng)
			want := append([]float64(nil), y...)
			for i := range want {
				want[i] += ab[0]*x1[i] + ab[1]*x2[i]
			}
			Axpy2(ab[0], x1, ab[1], x2, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("n=%d αβ=%v: Axpy2[%d]=%g want %g", n, ab, i, y[i], want[i])
				}
			}
		}
	}
}

func TestScal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range lengths {
		x := randSlice(n, rng)
		want := append([]float64(nil), x...)
		for i := range want {
			want[i] *= -3.25
		}
		Scal(-3.25, x)
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("n=%d: Scal[%d]=%g want %g", n, i, x[i], want[i])
			}
		}
	}
}

func TestSub(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range lengths {
		x, y := randSlice(n, rng), randSlice(n, rng)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] -= x[i]
		}
		Sub(x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Sub[%d]=%g want %g", n, i, y[i], want[i])
			}
		}
	}
}

func TestAddScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range lengths {
		x, y := randSlice(n, rng), randSlice(n, rng)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] = 0.5*want[i] + 2*x[i]
		}
		AddScaled(0.5, 2, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: AddScaled[%d]=%g want %g", n, i, y[i], want[i])
			}
		}
	}
}

func TestDotAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range lengths {
		v, c := randSlice(n, rng), randSlice(n, rng)
		c0, tau := rng.NormFloat64(), rng.NormFloat64()
		wantW := tau * (c0 + refDot(v, c))
		wantC := append([]float64(nil), c...)
		for i := range wantC {
			wantC[i] -= wantW * v[i]
		}
		w := DotAxpy(tau, c0, v, c)
		if !almostEq(w, wantW) {
			t.Errorf("n=%d: DotAxpy w=%g want %g", n, w, wantW)
		}
		for i := range c {
			if !almostEq(c[i], wantC[i]) {
				t.Fatalf("n=%d: DotAxpy c[%d]=%g want %g", n, i, c[i], wantC[i])
			}
		}
	}
}

func TestNrm2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range lengths {
		x := randSlice(n, rng)
		var want float64
		for _, v := range x {
			want = math.Hypot(want, v)
		}
		if got := Nrm2(x); !almostEq(got, want) {
			t.Errorf("n=%d: Nrm2=%g want %g", n, got, want)
		}
		inc := 3
		xs := randSlice(n*inc+1, rng)
		want = 0
		for i := 0; i < n; i++ {
			want = math.Hypot(want, xs[i*inc])
		}
		if got := Nrm2Inc(xs, n, inc); !almostEq(got, want) {
			t.Errorf("n=%d inc=%d: Nrm2Inc=%g want %g", n, inc, got, want)
		}
	}
}

// TestNrm2OverflowUnderflow proves the scaled norm is finite and accurate
// where the naive sum of squares overflows to +Inf or underflows to 0.
func TestNrm2OverflowUnderflow(t *testing.T) {
	big := []float64{1e200, -1e200, 1e200, 1e199}
	var naive float64
	for _, v := range big {
		naive += v * v
	}
	if !math.IsInf(naive, 1) {
		t.Fatal("test vector does not overflow the naive sum")
	}
	want := 1e200 * math.Sqrt(3.01)
	if got := Nrm2(big); !almostEq(got, want) {
		t.Errorf("overflow-range Nrm2=%g want %g", got, want)
	}

	small := []float64{1e-200, -1e-200, 3e-200}
	naive = 0
	for _, v := range small {
		naive += v * v
	}
	if naive != 0 {
		t.Fatal("test vector does not underflow the naive sum")
	}
	want = 1e-200 * math.Sqrt(11)
	if got := Nrm2(small); !almostEq(got, want) {
		t.Errorf("underflow-range Nrm2=%g want %g", got, want)
	}

	// Subnormal magnitudes: 1/amax would overflow, division must not.
	tiny := []float64{5e-310, 5e-310}
	want = 5e-310 * math.Sqrt(2)
	if got := Nrm2(tiny); math.Abs(got-want) > 1e-312 {
		t.Errorf("subnormal Nrm2=%g want %g", got, want)
	}

	// The strided variant shares the scaled path.
	if got := Nrm2Inc([]float64{1e200, 0, 1e200, 0}, 2, 2); !almostEq(got, 1e200*math.Sqrt2) {
		t.Errorf("overflow-range Nrm2Inc=%g want %g", got, 1e200*math.Sqrt2)
	}

	if got := Nrm2[float64](nil); got != 0 {
		t.Errorf("Nrm2(nil)=%g want 0", got)
	}
	if got := Nrm2([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Nrm2(zeros)=%g want 0", got)
	}
	if got := Nrm2([]float64{math.Inf(-1), 1}); !math.IsInf(got, 1) {
		t.Errorf("Nrm2 with Inf=%g want +Inf", got)
	}
}

// TestNrm2IncStrided pins the strided norm to the hypot reference across
// strides and lengths, independent of the contiguous tests above.
func TestNrm2IncStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, inc := range []int{1, 2, 3, 5, 7} {
		for _, n := range []int{0, 1, 2, 5, 16, 33, 100} {
			var x []float64
			if n > 0 {
				x = randSlice((n-1)*inc+1+3, rng)
			}
			var want float64
			for i := 0; i < n; i++ {
				want = math.Hypot(want, x[i*inc])
			}
			if got := Nrm2Inc(x, n, inc); !almostEq(got, want) {
				t.Errorf("n=%d inc=%d: Nrm2Inc=%g want %g", n, inc, got, want)
			}
		}
	}
}

// TestNrm2IncOverflowUnderflow proves the strided path reuses the same
// overflow-safe scaled accumulation as the contiguous one: values the naive
// sum of squares cannot represent must still produce finite, accurate norms
// at every stride, with garbage in the skipped gaps ignored.
func TestNrm2IncOverflowUnderflow(t *testing.T) {
	// Gap elements are poisoned with values that would dominate or destroy
	// the sum if a stride bug ever read them.
	poison := math.Inf(1)
	build := func(vals []float64, inc int) []float64 {
		x := make([]float64, (len(vals)-1)*inc+1)
		for i := range x {
			x[i] = poison
		}
		for i, v := range vals {
			x[i*inc] = v
		}
		return x
	}
	for _, inc := range []int{2, 3, 7} {
		big := build([]float64{1e200, -1e200, 1e200}, inc)
		if got, want := Nrm2Inc(big, 3, inc), 1e200*math.Sqrt(3); !almostEq(got, want) {
			t.Errorf("inc=%d overflow-range Nrm2Inc=%g want %g", inc, got, want)
		}
		small := build([]float64{1e-200, 3e-200}, inc)
		if got, want := Nrm2Inc(small, 2, inc), 1e-200*math.Sqrt(10); !almostEq(got, want) {
			t.Errorf("inc=%d underflow-range Nrm2Inc=%g want %g", inc, got, want)
		}
		tiny := build([]float64{5e-310, 5e-310, 5e-310, 5e-310}, inc)
		if got, want := Nrm2Inc(tiny, 4, inc), 1e-309; math.Abs(got-want) > 1e-312 {
			t.Errorf("inc=%d subnormal Nrm2Inc=%g want %g", inc, got, want)
		}
	}
	// Non-finite entries at the strided positions must propagate.
	if got := Nrm2Inc([]float64{1, 0, math.Inf(-1), 0, 2}, 3, 2); !math.IsInf(got, 1) {
		t.Errorf("strided Inf: Nrm2Inc=%g want +Inf", got)
	}
	if got := Nrm2Inc[float64](nil, 0, 3); got != 0 {
		t.Errorf("Nrm2Inc(nil, 0)=%g want 0", got)
	}
}

// testGemv holds GemvTc and GemvNSub against naive loops on an m×k block
// with lda > k and strided vectors, under every kernel family. k spans both
// sides of the SIMD dispatch length; one x element is zero (a skipped row).
func testGemv[T Scalar](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(7))
	rnd := func(n int) []T {
		s := make([]T, n)
		for i := range s {
			s[i] = FromParts[T](rng.NormFloat64(), rng.NormFloat64())
		}
		return s
	}
	const m, lda, inc = 9, 41, 3
	for _, k := range []int{1, 7, 16, 37} {
		a, x, y0 := rnd(m*lda), rnd(m*inc), rnd(k)
		x[2*inc] = 0
		want := append([]T(nil), y0...)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				want[j] += Conj(x[i*inc]) * a[i*lda+j]
			}
		}
		got := append([]T(nil), y0...)
		GemvTc(m, k, a, lda, x, inc, got)
		for j := range got {
			if d := Abs(got[j] - want[j]); d > tol {
				t.Errorf("GemvTc k=%d: y[%d] = %v, want %v", k, j, got[j], want[j])
			}
		}

		w, c0 := rnd(k), rnd(m*inc)
		wantC := append([]T(nil), c0...)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				wantC[i*inc] -= a[i*lda+j] * w[j]
			}
		}
		gotC := append([]T(nil), c0...)
		GemvNSub(m, k, a, lda, w, gotC, inc)
		for i := range gotC {
			if d := Abs(gotC[i] - wantC[i]); d > tol {
				t.Errorf("GemvNSub k=%d: y[%d] = %v, want %v", k, i, gotC[i], wantC[i])
			}
		}
	}
}

func TestGemvTcGemvNSub(t *testing.T) {
	prev := ActiveFamily()
	defer func() {
		if err := SetFamily(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, fam := range Families() {
		if err := SetFamily(fam); err != nil {
			t.Fatal(err)
		}
		t.Run(fam, func(t *testing.T) {
			testGemv[float64](t, 1e-12)
			testGemv[float32](t, 1e-4)
			testGemv[complex128](t, 1e-12)
			testGemv[complex64](t, 1e-4)
		})
	}
}
