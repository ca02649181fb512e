package vec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The complex-domain tests exercise the same generic primitives as
// vec_test.go instantiated at complex128, plus the conjugating variants
// (Dotc, DotAxpy) whose real instantiations degenerate to Dot.

func randZSlice(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func almostEqZ(a, b complex128) bool {
	if a == b {
		return true
	}
	d := cmplx.Abs(a - b)
	scale := math.Max(cmplx.Abs(a), cmplx.Abs(b))
	return d <= 1e-12*math.Max(scale, 1)
}

func TestComplexDotDotc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range lengths {
		x, y := randZSlice(n, rng), randZSlice(n, rng)
		var wantU, wantC complex128
		for i := range x {
			wantU += x[i] * y[i]
			wantC += cmplx.Conj(x[i]) * y[i]
		}
		if got := Dot(x, y); !almostEqZ(got, wantU) {
			t.Errorf("n=%d: Dot=%v want %v", n, got, wantU)
		}
		if got := Dotc(x, y); !almostEqZ(got, wantC) {
			t.Errorf("n=%d: Dotc=%v want %v", n, got, wantC)
		}
	}
}

func TestComplexAxpyAxpy2Sub(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alpha, beta := complex(1.5, -0.5), complex(-2, 0.25)
	for _, n := range lengths {
		x1, x2, y := randZSlice(n, rng), randZSlice(n, rng), randZSlice(n, rng)
		want := append([]complex128(nil), y...)
		for i := range want {
			want[i] += alpha * x1[i]
		}
		Axpy(alpha, x1, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
		for i := range want {
			want[i] += alpha*x1[i] + beta*x2[i]
		}
		Axpy2(alpha, x1, beta, x2, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Axpy2[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
		for i := range want {
			want[i] -= x1[i]
		}
		Sub(x1, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Sub[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
	}
	// α = 0 must be a structural no-op.
	y := []complex128{1 + 2i}
	Axpy(0, []complex128{cmplx.Inf()}, y)
	if y[0] != 1+2i {
		t.Error("Axpy with α=0 touched y")
	}
}

func TestComplexScalAddScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alpha, beta := complex(0.5, 1), complex(2, -1)
	for _, n := range lengths {
		x, y := randZSlice(n, rng), randZSlice(n, rng)
		want := append([]complex128(nil), y...)
		for i := range want {
			want[i] *= alpha
		}
		Scal(alpha, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: Scal[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
		for i := range want {
			want[i] = alpha*want[i] + beta*x[i]
		}
		AddScaled(alpha, beta, x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("n=%d: AddScaled[%d]=%v want %v", n, i, y[i], want[i])
			}
		}
	}
}

func TestComplexDotAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range lengths {
		v, c := randZSlice(n, rng), randZSlice(n, rng)
		c0 := complex(rng.NormFloat64(), rng.NormFloat64())
		tau := complex(rng.NormFloat64(), rng.NormFloat64())
		var dot complex128
		for i := range v {
			dot += cmplx.Conj(v[i]) * c[i]
		}
		wantW := tau * (c0 + dot)
		wantC := append([]complex128(nil), c...)
		for i := range wantC {
			wantC[i] -= wantW * v[i]
		}
		w := DotAxpy(tau, c0, v, c)
		if !almostEqZ(w, wantW) {
			t.Errorf("n=%d: DotAxpy w=%v want %v", n, w, wantW)
		}
		for i := range c {
			if !almostEqZ(c[i], wantC[i]) {
				t.Fatalf("n=%d: DotAxpy c[%d]=%v want %v", n, i, c[i], wantC[i])
			}
		}
	}
}

func TestComplexNrm2(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range lengths {
		x := randZSlice(n, rng)
		var want float64
		for _, v := range x {
			want = math.Hypot(want, cmplx.Abs(v))
		}
		if got := Nrm2(x); !almostEq(got, want) {
			t.Errorf("n=%d: Nrm2=%g want %g", n, got, want)
		}
	}
	// Overflow range: |x|² would be +Inf naively.
	big := []complex128{complex(1e200, 1e200), complex(-1e200, 0)}
	want := 1e200 * math.Sqrt(3)
	if got := Nrm2(big); !almostEq(got, want) {
		t.Errorf("overflow-range Nrm2=%g want %g", got, want)
	}
	// Underflow range: |x|² would be 0 naively.
	small := []complex128{complex(1e-200, 0), complex(0, 1e-200)}
	want = 1e-200 * math.Sqrt2
	if got := Nrm2(small); !almostEq(got, want) {
		t.Errorf("underflow-range Nrm2=%g want %g", got, want)
	}
}

// TestScalarHooks pins the hook semantics across all four domains.
func TestScalarHooks(t *testing.T) {
	if Conj(complex(1.0, 2.0)) != complex(1.0, -2.0) {
		t.Error("Conj(complex128) wrong")
	}
	if Conj(complex(float32(1), float32(2))) != complex(float32(1), float32(-2)) {
		t.Error("Conj(complex64) wrong")
	}
	if Conj(-1.5) != -1.5 || Conj(float32(-1.5)) != float32(-1.5) {
		t.Error("Conj must be the identity on the real types")
	}
	if Abs(complex(3.0, 4.0)) != 5 || Abs(-2.0) != 2 || Abs(float32(-2)) != 2 {
		t.Error("Abs wrong")
	}
	if Abs2(complex(3.0, 4.0)) != 25 || Abs2(float32(3)) != 9 {
		t.Error("Abs2 wrong")
	}
	if RealPart(complex(3.0, 4.0)) != 3 || ImagPart(complex(3.0, 4.0)) != 4 {
		t.Error("component hooks wrong for complex128")
	}
	if RealPart(float32(2.5)) != 2.5 || ImagPart(7.0) != 0 {
		t.Error("component hooks wrong for real types")
	}
	if FromParts[complex64](1, -2) != complex(float32(1), float32(-2)) {
		t.Error("FromParts complex64 wrong")
	}
	if FromParts[float64](1.25, 0) != 1.25 {
		t.Error("FromParts float64 wrong")
	}
	if !IsComplex[complex64]() || !IsComplex[complex128]() || IsComplex[float32]() || IsComplex[float64]() {
		t.Error("IsComplex wrong")
	}
}

// TestSinglePrecisionPrimitives smoke-tests the float32/complex64
// instantiations the new public precisions run on.
func TestSinglePrecisionPrimitives(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Errorf("float32 Dot=%g want 35", got)
	}
	Axpy(float32(2), x, y)
	if y[0] != 7 || y[4] != 11 {
		t.Errorf("float32 Axpy wrong: %v", y)
	}
	if got := Nrm2([]float32{3, 4}); got != 5 {
		t.Errorf("float32 Nrm2=%g want 5", got)
	}
	// float32 squares that overflow float32 but not the float64 accumulator.
	if got := Nrm2([]float32{3e30, 4e30}); math.Abs(got-5e30) > 1e-6*5e30 {
		t.Errorf("float32 wide-range Nrm2=%g want 5e30", got)
	}
	cx := []complex64{complex(1, 1), complex(2, -1)}
	cy := []complex64{complex(3, 0), complex(0, 1)}
	if got := Dotc(cx, cy); got != complex(float32(2), float32(-1)) {
		t.Errorf("complex64 Dotc=%v want (2-1i)", got)
	}
	if got := Nrm2([]complex64{complex(3, 4)}); got != 5 {
		t.Errorf("complex64 Nrm2=%g want 5", got)
	}
}
