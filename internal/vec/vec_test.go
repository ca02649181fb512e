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

// multiColumn holds ReflectCols and DotcCols to their one-column forms:
// over nc columns at stride ldc they must match nc calls of DotAxpy / Dotc
// (whatever family those dispatch to) within reassociation slack, for both
// head layouts — heads adjacent to their tails (inc0 = ldc) and heads in a
// row of their own (inc0 = 1) — and must leave the gaps between columns
// alone.
func multiColumn[T Scalar](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(31))
	rnd := func() T { return FromParts[T](rng.NormFloat64(), rng.NormFloat64()) }
	const nc, gap = 5, 3
	for _, n := range lengths {
		ldc := n + 1 + gap // per column: head, n tail elements, gap
		v := make([]T, n)
		for i := range v {
			v[i] = rnd()
		}
		orig := make([]T, nc*ldc)
		for i := range orig {
			orig[i] = rnd()
		}
		tau := rnd()
		near := func(got, want T) bool { return Abs(got-want) <= tol*float64(n+1)*(1+Abs(want)) }

		iv := TimesI(v, make([]T, n))
		z := make([]T, nc)
		DotcCols(v, iv, orig[1:], ldc, nc, z)
		for y := range z {
			if want := Dotc(orig[y*ldc+1:y*ldc+1+n], v); !near(z[y], want) {
				t.Fatalf("n=%d: DotcCols z[%d]=%v want %v", n, y, z[y], want)
			}
		}

		for _, rowHeads := range []bool{false, true} {
			want := append([]T(nil), orig...)
			for y := 0; y < nc; y++ {
				want[y*ldc] -= DotAxpy(tau, want[y*ldc], v, want[y*ldc+1:y*ldc+1+n])
			}
			got := append([]T(nil), orig...)
			if rowHeads {
				heads := make([]T, nc)
				for y := range heads {
					heads[y] = got[y*ldc]
				}
				ReflectCols(tau, v, iv, heads, 1, got[1:], ldc, nc)
				for y := range heads {
					got[y*ldc] = heads[y]
				}
			} else {
				ReflectCols(tau, v, iv, got, ldc, got[1:], ldc, nc)
			}
			for i := range got {
				if inGap := i%ldc > n; inGap && got[i] != orig[i] {
					t.Fatalf("n=%d: ReflectCols wrote between columns at %d", n, i)
				}
				if !near(got[i], want[i]) {
					t.Fatalf("n=%d rowHeads=%v: ReflectCols [%d]=%v want %v", n, rowHeads, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMultiColumnPrimitives(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	for _, fam := range Families() {
		if err := SetFamily(fam); err != nil {
			t.Fatal(err)
		}
		t.Run(fam+"/s", func(t *testing.T) { multiColumn[float32](t, 1e-6) })
		t.Run(fam+"/d", func(t *testing.T) { multiColumn[float64](t, 1e-15) })
		t.Run(fam+"/c", func(t *testing.T) { multiColumn[complex64](t, 1e-6) })
		t.Run(fam+"/z", func(t *testing.T) { multiColumn[complex128](t, 1e-15) })
	}
}
