package vec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Agreement suite for the SIMD kernel family: every assembly kernel is held
// against the generic loops on random data across all unroll remainders and
// unaligned base offsets. The two families intentionally differ in rounding
// (the assembly fuses multiply-adds and accumulates in a different order),
// so agreement is relative to the natural magnitude of the computation —
// Σ|terms| — with a bound a small multiple of n·ε, never bit equality.

// simdLens covers empty, single, every tail remainder of the widest unroll
// (32 lanes for float32 dot), the exact widths, and cache-spanning sizes.
var simdLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255, 256, 257}

// offsets shifts slice bases off 32-byte alignment; the kernels use
// unaligned loads and must be offset-blind.
var offsets = []int{0, 1, 2, 3}

func requireSIMD(t testing.TB) {
	t.Helper()
	if !SIMDSupported() {
		t.Skip("no SIMD backend on this host")
	}
}

func ptrF64(s []float64) *float64 {
	if len(s) == 0 {
		return new(float64)
	}
	return &s[0]
}

func ptrF32(s []float32) *float32 {
	if len(s) == 0 {
		return new(float32)
	}
	return &s[0]
}

// closeAt reports |got−want| ≤ tol·max(scale, 1), with NaN agreeing only
// with NaN. scale is the magnitude of the terms entering the computation,
// so cancellation in the result does not tighten the bound unfairly.
func closeAt(got, want, scale, tol float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	return math.Abs(got-want) <= tol*math.Max(scale, 1)
}

const (
	tolF64 = 1e-12 // ≈ 4500 ULPs of the term sum; n·ε for n=257 is ~6e-14
	tolF32 = 2e-4  // same headroom at float32's ε ≈ 1.2e-7
)

func TestSIMDDotAgree(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(20))
	for _, n := range simdLens {
		for _, off := range offsets {
			xb, yb := randSlice(n+off, rng), randSlice(n+off, rng)
			x, y := xb[off:], yb[off:]
			want := dotGeneric(x, y)
			var scale float64
			for i := range x {
				scale += math.Abs(x[i] * y[i])
			}
			if got := dotF64(ptrF64(x), ptrF64(y), n); !closeAt(got, want, scale, tolF64) {
				t.Errorf("dotF64 n=%d off=%d: got %g want %g", n, off, got, want)
			}

			x32, y32 := toF32(x), toF32(y)
			want32 := dotGeneric(x32, y32)
			if got := dotF32(ptrF32(x32), ptrF32(y32), n); !closeAt(float64(got), float64(want32), scale, tolF32) {
				t.Errorf("dotF32 n=%d off=%d: got %g want %g", n, off, got, want32)
			}
		}
	}
}

func toF32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

func TestSIMDAxpyAgree(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(21))
	for _, n := range simdLens {
		for _, off := range offsets {
			for _, alpha := range []float64{1, -1, 0.5, -2.75} {
				xb := randSlice(n+off, rng)
				yb := randSlice(n+off, rng)
				x := xb[off:]
				want := append([]float64(nil), yb[off:]...)
				got := append([]float64(nil), yb[off:]...)
				axpyGeneric(alpha, x, want)
				axpyF64(alpha, ptrF64(x), ptrF64(got), n)
				for i := range got {
					scale := math.Abs(want[i]) + math.Abs(alpha*x[i])
					if !closeAt(got[i], want[i], scale, tolF64) {
						t.Fatalf("axpyF64 n=%d off=%d α=%g i=%d: got %g want %g", n, off, alpha, i, got[i], want[i])
					}
				}

				x32 := toF32(x)
				base32 := toF32(yb[off:])
				w32 := append([]float32(nil), base32...)
				g32 := append([]float32(nil), base32...)
				axpyGeneric(float32(alpha), x32, w32)
				axpyF32(float32(alpha), ptrF32(x32), ptrF32(g32), n)
				for i := range g32 {
					scale := math.Abs(float64(w32[i])) + math.Abs(alpha*float64(x32[i]))
					if !closeAt(float64(g32[i]), float64(w32[i]), scale, tolF32) {
						t.Fatalf("axpyF32 n=%d off=%d α=%g i=%d: got %g want %g", n, off, alpha, i, g32[i], w32[i])
					}
				}
			}
		}
	}
}

func TestSIMDAxpy2Agree(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(22))
	for _, n := range simdLens {
		for _, off := range offsets {
			alpha, beta := 1.5, -0.75
			x1 := randSlice(n+off, rng)[off:]
			x2 := randSlice(n+off, rng)[off:]
			yb := randSlice(n+off, rng)[off:]
			want := append([]float64(nil), yb...)
			got := append([]float64(nil), yb...)
			axpy2Generic(alpha, x1, beta, x2, want)
			axpy2F64(alpha, ptrF64(x1), beta, ptrF64(x2), ptrF64(got), n)
			for i := range got {
				scale := math.Abs(want[i]) + math.Abs(alpha*x1[i]) + math.Abs(beta*x2[i])
				if !closeAt(got[i], want[i], scale, tolF64) {
					t.Fatalf("axpy2F64 n=%d off=%d i=%d: got %g want %g", n, off, i, got[i], want[i])
				}
			}

			x132, x232 := toF32(x1), toF32(x2)
			w32 := toF32(yb)
			g32 := append([]float32(nil), w32...)
			axpy2Generic(float32(alpha), x132, float32(beta), x232, w32)
			axpy2F32(float32(alpha), ptrF32(x132), float32(beta), ptrF32(x232), ptrF32(g32), n)
			for i := range g32 {
				scale := math.Abs(float64(w32[i])) + math.Abs(alpha*float64(x132[i])) + math.Abs(beta*float64(x232[i]))
				if !closeAt(float64(g32[i]), float64(w32[i]), scale, tolF32) {
					t.Fatalf("axpy2F32 n=%d off=%d i=%d: got %g want %g", n, off, i, g32[i], w32[i])
				}
			}
		}
	}
}

func TestSIMDSumsqAgree(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(23))
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	for _, n := range simdLens {
		for _, off := range offsets {
			x := randSlice(n+off, rng)[off:]
			SetSIMD(false) // reference via the generic accumulation
			want := sumSquares(x[:n])
			SetSIMD(prev)
			if got := sumsqF64(ptrF64(x), n); !closeAt(got, want, want, tolF64) {
				t.Errorf("sumsqF64 n=%d off=%d: got %g want %g", n, off, got, want)
			}
			x32 := toF32(x)
			SetSIMD(false)
			want32 := sumSquares(x32[:n])
			SetSIMD(prev)
			// float32 data, float64 accumulation on both sides: only the
			// summation order differs, so the bound is the float64 one.
			if got := sumsqF32(ptrF32(x32), n); !closeAt(got, want32, want32, tolF64) {
				t.Errorf("sumsqF32 n=%d off=%d: got %g want %g", n, off, got, want32)
			}
		}
	}
}

// TestSIMDNrm2Complex exercises the interleaved reinterpret path: a complex
// norm with the backend on must agree with the backend-off norm to float64
// tolerance in both complex domains.
func TestSIMDNrm2Complex(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(24))
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 129} {
		z := make([]complex128, n)
		z64 := make([]complex64, n)
		for i := range z {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			z[i] = complex(re, im)
			z64[i] = complex(float32(re), float32(im))
		}
		SetSIMD(false)
		wantZ, wantC := Nrm2(z), Nrm2(z64)
		SetSIMD(true)
		if got := Nrm2(z); !closeAt(got, wantZ, wantZ, tolF64) {
			t.Errorf("complex128 Nrm2 n=%d: got %g want %g", n, got, wantZ)
		}
		if got := Nrm2(z64); !closeAt(got, wantC, wantC, tolF64) {
			t.Errorf("complex64 Nrm2 n=%d: got %g want %g", n, got, wantC)
		}
	}
}

// TestSIMDDispatchedPrimitives drives the exported entry points (not the
// raw kernels) with the backend toggled, covering the slice-level dispatch
// itself: length gate, alpha-zero skip ordering, and T-to-monomorphic
// plumbing for all four primitives.
func TestSIMDDispatchedPrimitives(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(25))
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	for _, n := range []int{1, 15, 16, 17, 100} {
		x, y := randSlice(n, rng), randSlice(n, rng)
		SetSIMD(false)
		wantDot := Dot(x, y)
		wantNrm := Nrm2(x)
		yGen := append([]float64(nil), y...)
		Axpy(1.25, x, yGen)
		SetSIMD(true)
		if got := Dot(x, y); !closeAt(got, wantDot, wantNrm*wantNrm, tolF64) {
			t.Errorf("Dot n=%d: %g vs %g", n, got, wantDot)
		}
		if got := Nrm2(x); !closeAt(got, wantNrm, wantNrm, tolF64) {
			t.Errorf("Nrm2 n=%d: %g vs %g", n, got, wantNrm)
		}
		ySIMD := append([]float64(nil), y...)
		Axpy(1.25, x, ySIMD)
		for i := range ySIMD {
			if !closeAt(ySIMD[i], yGen[i], math.Abs(yGen[i])+math.Abs(x[i]), tolF64) {
				t.Fatalf("Axpy n=%d i=%d: %g vs %g", n, i, ySIMD[i], yGen[i])
			}
		}
		// 0·x must remain a structural skip on both families: an Inf in x
		// cannot leak a NaN into y.
		yInf := append([]float64(nil), y...)
		xInf := append([]float64(nil), x...)
		xInf[0] = math.Inf(1)
		Axpy(0, xInf, yInf)
		for i := range yInf {
			if yInf[i] != y[i] {
				t.Fatalf("Axpy(0, …) modified y[%d]", i)
			}
		}
	}
}

func TestSetFamily(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	if err := SetFamily(FamilyGeneric); err != nil || ActiveFamily() != FamilyGeneric {
		t.Fatalf("SetFamily(generic): err=%v active=%s", err, ActiveFamily())
	}
	if err := SetFamily("turbo"); err == nil {
		t.Fatal("SetFamily accepted an unknown family")
	}
	err := SetFamily(FamilySIMD)
	if SIMDSupported() {
		if err != nil || ActiveFamily() != FamilySIMD {
			t.Fatalf("SetFamily(simd) on a SIMD host: err=%v active=%s", err, ActiveFamily())
		}
		if got := SIMDName(); got != "avx2" && got != "neon" {
			t.Fatalf("SIMDName()=%q", got)
		}
	} else {
		if err == nil {
			t.Fatal("SetFamily(simd) succeeded on a host without a backend")
		}
		if len(Families()) != 1 || Families()[0] != FamilyGeneric {
			t.Fatalf("Families()=%v on a host without a backend", Families())
		}
	}
}

// gemmRef is the reference for the packed driver, in complex128 whatever T
// is: c0 + α·op(A)·B with op(A)[i,l] = a[i·lda+l], or conj(a[l·lda+i])
// with transA, plus per entry the magnitude of its terms
// |c0| + Σ_l |α·op(A)[i,l]|·|b[l,j]|. An entry whose terms touch a
// non-finite input is reported through finite = false. The padding columns
// n ≤ j < ldc keep c0.
func gemmRef[T Scalar](m, n, k int, alpha T, a []T, lda int, transA bool, b []T, ldb int, c0 []T, ldc int) (want []complex128, scale []float64, finite []bool) {
	z := func(v T) complex128 { return complex(RealPart(v), ImagPart(v)) }
	fin := func(v complex128) bool { return isFinite(real(v)) && isFinite(imag(v)) }
	al := z(alpha)
	want, scale, finite = make([]complex128, len(c0)), make([]float64, len(c0)), make([]bool, len(c0))
	for o, v := range c0 {
		want[o], scale[o], finite[o] = z(v), 0, fin(z(v))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			cv := want[i*ldc+j]
			ok := finite[i*ldc+j]
			var s complex128
			sc := cmplx.Abs(cv)
			for l := 0; l < k; l++ {
				var av complex128
				if transA {
					av = cmplx.Conj(z(a[l*lda+i]))
				} else {
					av = z(a[i*lda+l])
				}
				av *= al
				bv := z(b[l*ldb+j])
				ok = ok && fin(av) && fin(bv)
				s += av * bv
				sc += cmplx.Abs(av) * cmplx.Abs(bv)
			}
			want[i*ldc+j], scale[i*ldc+j], finite[i*ldc+j] = cv+s, sc, ok
		}
	}
	return want, scale, finite
}

func randOf[T Scalar](n int, rng *rand.Rand) []T {
	x := make([]T, n)
	for i := range x {
		x[i] = FromParts[T](rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// testGemmAgree holds the packed driver in domain T (called past
// GemmNN/GemmTN's dispatch gates, so even below GemmMinCols) against
// gemmRef across shapes that leave ragged edge strips in both directions,
// with padded strides.
func testGemmAgree[T Scalar](t *testing.T, tol float64, alphas []T) {
	rng := rand.New(rand.NewSource(26))
	shapes := [][3]int{
		{1, 4, 1}, {1, 8, 3}, {3, 7, 2}, {4, 8, 1}, {4, 8, 5}, {5, 9, 4},
		{7, 15, 7}, {8, 16, 8}, {9, 17, 3}, {12, 24, 11}, {13, 33, 16},
		{16, 40, 32}, {31, 63, 17}, {32, 64, 32}, {37, 53, 29},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, alpha := range alphas {
				lda, arows := k+2, m
				if transA {
					lda, arows = m+2, k
				}
				ldb, ldc := n+1, n+3
				a, b, c := randOf[T](arows*lda, rng), randOf[T](k*ldb, rng), randOf[T](m*ldc, rng)
				want, scale, _ := gemmRef(m, n, k, alpha, a, lda, transA, b, ldb, c, ldc)
				gemmPacked(m, n, k, alpha, a, lda, transA, b, ldb, c, ldc, make([]T, GemmPackLen[T](m, n, k)))
				for o, v := range c {
					got := complex(RealPart(v), ImagPart(v))
					if cmplx.Abs(got-want[o]) > tol*scale[o] {
						t.Fatalf("%s m=%d n=%d k=%d transA=%v α=%v: c[%d,%d]=%v want %v",
							Prec[T]().Tag(), m, n, k, transA, alpha, o/ldc, o%ldc, got, want[o])
					}
				}
			}
		}
	}
}

// TestSIMDGemmAgree covers the packed driver in all four domains; for the
// complex ones that is the 1m layout, and transA is the conjugate transpose.
func TestSIMDGemmAgree(t *testing.T) {
	requireSIMD(t)
	testGemmAgree(t, tolF64, []float64{1, -1, 0.5})
	testGemmAgree(t, tolF32, []float32{1, -1, 0.5})
	testGemmAgree(t, tolF64, []complex128{1, -1, 0.5 - 2i})
	testGemmAgree(t, tolF32, []complex64{1, -1, 0.5 - 2i})
}

func TestGemmDispatchGates(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	pack := make([]float64, GemmPackLen[float64](64, 64, 64))
	a := make([]float64, 64*64)
	zz, cc := make([]complex128, 64*64), make([]complex64, 64*64)
	zpack, cpack := make([]complex128, GemmPackLen[complex128](64, 64, 64)), make([]complex64, GemmPackLen[complex64](64, 64, 64))
	// Degenerate shapes are "handled" (nothing to do) regardless of family.
	if !GemmNN(0, 64, 64, 1.0, a, 64, a, 64, a, 64, pack) {
		t.Error("GemmNN(m=0) should report handled")
	}
	SetSIMD(false)
	if GemmNN(64, 64, 64, 1.0, a, 64, a, 64, a, 64, pack) {
		t.Error("GemmNN handled a product with the backend disabled")
	}
	if GemmTN(64, 64, 64, 1, zz, 64, zz, 64, zz, 64, zpack) || GemmNN(64, 64, 64, 1, cc, 64, cc, 64, cc, 64, cpack) {
		t.Error("a complex product was handled with the backend disabled")
	}
	// 8×8×8 is the smallest product a block-reflector apply at ib = 8
	// hands the packed path; size alone never declines it.
	if GemmNN(8, 8, 8, 1.0, a, 64, a, 64, a, 64, pack) {
		t.Error("GemmNN handled an 8×8×8 product with the backend disabled")
	}
	if SIMDSupported() {
		SetSIMD(true)
		if !GemmNN(8, 8, 8, 1.0, a, 64, a, 64, a, 64, pack) || !GemmTN(8, 8, 8, 1, zz, 64, zz, 64, zz, 64, zpack) {
			t.Error("an 8×8×8 product with enough pack scratch was declined")
		}
		if GemmNN(64, 64, 64, 1.0, a, 64, a, 64, a, 64, pack[:4]) {
			t.Error("GemmNN handled a product with insufficient pack scratch")
		}
		if !GemmNN(64, 64, 64, 1, zz, 64, zz, 64, zz, 64, zpack) || !GemmTN(64, 64, 64, 1, cc, 64, cc, 64, cc, 64, cpack) {
			t.Error("a complex product with enough pack scratch was declined")
		}
		if GemmNN(64, 64, 64, 1, zz, 64, zz, 64, zz, 64, zpack[:len(zpack)-1]) ||
			GemmTN(64, 64, 64, 1, cc, 64, cc, 64, cc, 64, cpack[:len(cpack)-1]) {
			t.Error("a complex product was handled with insufficient pack scratch")
		}
	}
}

// TestGemmPackBoundCoversLen: kernel.WorkLen sizes every domain's pack
// region from the one non-generic bound, so the bound must dominate each
// domain's exact need.
func TestGemmPackBoundCoversLen(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 64, 65, 127, 128}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				bound := GemmPackBound(m, n, k)
				for _, need := range []int{GemmPackLen[float32](m, n, k), GemmPackLen[float64](m, n, k),
					GemmPackLen[complex64](m, n, k), GemmPackLen[complex128](m, n, k)} {
					if need > bound {
						t.Fatalf("GemmPackBound(%d,%d,%d) = %d < a domain's GemmPackLen %d", m, n, k, bound, need)
					}
				}
			}
		}
	}
}

// fuzzVals returns count float64 values: raw's 8-byte big-endian bit
// patterns first, then normal deviates drawn from seed.
func fuzzVals(raw []byte, count int, seed int64) []float64 {
	vals := make([]float64, 0, count)
	for i := 0; i+8 <= len(raw) && len(vals) < count; i += 8 {
		bits := uint64(0)
		for b := 0; b < 8; b++ {
			bits = bits<<8 | uint64(raw[i+b])
		}
		vals = append(vals, math.Float64frombits(bits))
	}
	rng := rand.New(rand.NewSource(seed))
	for len(vals) < count {
		vals = append(vals, rng.NormFloat64())
	}
	return vals
}

// FuzzVecSIMD cross-checks the assembly kernels against the generic loops
// on fuzzer-chosen lengths, offsets and raw float64 bit patterns. Non-
// finite values are legal inputs: the families must then agree on
// non-finiteness (exact NaN/Inf placement may differ at the overflow
// boundary because FMA skips the intermediate rounding).
//
// Op 3 is the packed GEMM against gemmRef, in float64 (B read in place)
// or complex128 (the 1m layout) by op's bit 3: m ≤ 32 from nRaw's low bits,
// B's row stride ldb = n + nRaw's high bits (0–7) drawn apart from n ≤ 33
// (offRaw), k ≤ 16 and NN/TN from op's high bits.
func FuzzVecSIMD(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(33), uint8(3), []byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(2), uint8(16), uint8(0), []byte{0, 0, 0, 0, 0, 0, 240, 127})
	f.Add(uint8(3), uint8(65), uint8(2), []byte{1, 0, 0, 0, 0, 0, 240, 255})
	f.Add(uint8(3|4|5<<4), uint8(8), uint8(4), []byte{127, 240, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(3|8|4|7<<4), uint8(9|3<<5), uint8(20), []byte{127, 240, 0, 0, 0, 0, 0, 0, 255, 248, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(3|8|15<<4), uint8(31|7<<5), uint8(31), []byte{127, 239, 255, 255, 255, 255, 255, 255, 255, 239, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, op, nRaw, offRaw uint8, raw []byte) {
		if !SIMDSupported() {
			t.Skip("no SIMD backend")
		}
		if op%4 == 3 {
			m, n, k, transA := 1+int(nRaw&31), 1+int(offRaw)%33, 1+int(op>>4), op&4 != 0
			ldb := n + int(nRaw>>5)
			if op&8 != 0 {
				fuzzGemm[float64](t, m, n, k, ldb, transA, raw)
			} else {
				fuzzGemm[complex128](t, m, n, k, ldb, transA, raw)
			}
			return
		}
		n := int(nRaw) % 130
		off := int(offRaw) % 4
		vals := fuzzVals(raw, 2*(n+off)+2, int64(n)*7+int64(off))
		x := vals[off : off+n]
		y := vals[n+off+1+off : n+off+1+off+n]

		bothOrNeither := func(name string, got, want float64) {
			gf, wf := isFinite(got), isFinite(want)
			if gf != wf {
				t.Fatalf("%s finiteness split: got %g want %g (x=%v y=%v)", name, got, want, x, y)
			}
			if !gf {
				return
			}
			var scale float64
			for i := range x {
				scale += math.Abs(x[i]) * math.Abs(y[i])
			}
			if !isFinite(scale) {
				return
			}
			if !closeAt(got, want, scale, tolF64) {
				t.Fatalf("%s: got %g want %g (x=%v y=%v)", name, got, want, x, y)
			}
		}

		switch op % 4 {
		case 0:
			bothOrNeither("dot", dotF64(ptrF64(x), ptrF64(y), n), dotGeneric(x, y))
		case 1:
			want := append([]float64(nil), y...)
			got := append([]float64(nil), y...)
			axpyGeneric(1.5, x, want)
			axpyF64(1.5, ptrF64(x), ptrF64(got), n)
			for i := range got {
				gf, wf := isFinite(got[i]), isFinite(want[i])
				if gf != wf {
					t.Fatalf("axpy[%d] finiteness split: got %g want %g", i, got[i], want[i])
				}
				if gf && !closeAt(got[i], want[i], math.Abs(want[i])+math.Abs(1.5*x[i]), tolF64) {
					t.Fatalf("axpy[%d]: got %g want %g", i, got[i], want[i])
				}
			}
		case 2:
			prev := SIMDEnabled()
			SetSIMD(false)
			want := sumSquares(x[:n])
			SetSIMD(prev)
			got := sumsqF64(ptrF64(x), n)
			if isFinite(got) != isFinite(want) {
				t.Fatalf("sumsq finiteness split: got %g want %g (x=%v)", got, want, x)
			}
			if isFinite(want) && !closeAt(got, want, want, tolF64) {
				t.Fatalf("sumsq: got %g want %g (x=%v)", got, want, x)
			}
		}
	})
}

// fuzzGemm runs one C += ±op(A)·B through the packed driver on fuzzed
// data: in float64 the micro-kernel reads B's full strips in place, at the
// fuzzed stride ldb ≥ n, with B's slice ending at its last element and
// fuzzed values (NaN, Inf, huge) in the padding the product must not read;
// in complex128 B goes through the 1m expansion. An entry whose terms touch
// a non-finite input must come out non-finite, as the generic loop's does;
// an entry of finite terms whose magnitudes sum clear of overflow must come
// out finite and close. Between the two (finite inputs, a term sum near
// overflow), where the overflow lands depends on summation order and FMA,
// and is not checked.
func fuzzGemm[T float64 | complex128](t *testing.T, m, n, k, ldb int, transA bool, raw []byte) {
	lda, arows := k, m
	if transA {
		lda, arows = m, k
	}
	parts := 1
	if IsComplex[T]() {
		parts = 2
	}
	blen := (k-1)*ldb + n
	vals := fuzzVals(raw, parts*(arows*lda+blen+m*n), int64(m*1089+n*33+k+ldb<<12))
	z := make([]T, len(vals)/parts)
	for i := range z {
		z[i] = FromParts[T](vals[parts*i], vals[parts*i+parts-1])
	}
	a, b, c := z[:arows*lda], z[arows*lda:arows*lda+blen:arows*lda+blen], z[arows*lda+blen:]
	alpha := T(1)
	if m%2 == 0 {
		alpha = -1
	}
	want, scale, finite := gemmRef(m, n, k, alpha, a, lda, transA, b, ldb, c, n)
	gemmPacked(m, n, k, alpha, a, lda, transA, b, ldb, c, n, make([]T, GemmPackLen[T](m, n, k)))
	what := fmt.Sprintf("%s m=%d n=%d k=%d ldb=%d transA=%v", Prec[T]().Tag(), m, n, k, ldb, transA)
	for o, v := range c {
		got := complex(RealPart(v), ImagPart(v))
		gf := isFinite(real(got)) && isFinite(imag(got))
		switch {
		case !finite[o]:
			if gf {
				t.Fatalf("%s: c[%d]=%v finite, want non-finite (%v)", what, o, got, want[o])
			}
		case scale[o] < math.MaxFloat64/4:
			if !gf || cmplx.Abs(got-want[o]) > tolF64*math.Max(scale[o], 1) {
				t.Fatalf("%s: c[%d]=%v want %v", what, o, got, want[o])
			}
		}
	}
}

// TestGemmInPlaceBoundsCheck: the real driver reads B's full strips in
// place from assembly, so a B slice one element short of the product's
// last read must panic in Go rather than let the micro-kernel run off it.
func TestGemmInPlaceBoundsCheck(t *testing.T) {
	requireSIMD(t)
	const m, n, k, ldb = 8, 16, 8, 20
	a, c := make([]float64, m*k), make([]float64, m*n)
	b := make([]float64, (k-1)*ldb+n)
	pack := make([]float64, GemmPackLen[float64](m, n, k))
	gemmPacked(m, n, k, 1.0, a, k, false, b, ldb, c, n, pack)
	defer func() {
		if recover() == nil {
			t.Fatal("a B one element short of the last in-place read did not panic")
		}
	}()
	gemmPacked(m, n, k, 1.0, a, k, false, b[:len(b)-1], ldb, c, n, pack)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// complexColsAgree holds the complex multi-column primitives on the real
// vector kernels (ReflectCols/DotcCols over the interleaved view, with
// TimesI's rotated copy) to the generic loops they replace, across the
// dispatch threshold, odd and long columns, both head layouts, a padded
// column stride and τ = 0. The bound is ε-scaled by the magnitude of each
// result's terms: |c| + |v|·S for the reflected entries, where S bounds
// |w| = |τ|·(|c0| + Σ|v||c|), and Σ|v||c| for the products.
func complexColsAgree[T Scalar](t *testing.T) {
	eps := 0x1p-53
	if _, single := any(*new(T)).(complex64); single {
		eps = 0x1p-24
	}
	rng := rand.New(rand.NewSource(41))
	rnd := func() T { return FromParts[T](rng.NormFloat64(), rng.NormFloat64()) }
	const nc, gap = 5, 3
	for _, n := range []int{1, simdMinLen/2 - 1, simdMinLen / 2, simdMinLen - 1, simdMinLen, 33, 65, 129} {
		for _, tau := range []T{rnd(), 0} {
			for _, rowHeads := range []bool{false, true} {
				ldc := n + 1 + gap // head, tail, gap: ldc > n
				v := make([]T, n)
				for i := range v {
					v[i] = rnd()
				}
				orig := make([]T, nc*ldc)
				for i := range orig {
					orig[i] = rnd()
				}
				inc0, heads0 := ldc, orig
				if rowHeads {
					inc0, heads0 = 1, make([]T, nc)
					for y := range heads0 {
						heads0[y] = rnd()
					}
				}
				run := func(simd bool) (c, heads, z []T) {
					SetSIMD(simd)
					c, heads, z = append([]T(nil), orig...), append([]T(nil), heads0...), make([]T, nc)
					if !rowHeads {
						heads = c
					}
					iv := TimesI(v, make([]T, n))
					if want := simd && 2*n >= simdMinLen; (iv != nil) != want {
						t.Fatalf("n=%d simd=%v: TimesI returned a copy: %v, want %v", n, simd, iv != nil, want)
					}
					DotcCols(v, iv, c[1:], ldc, nc, z)
					ReflectCols(tau, v, iv, heads, inc0, c[1:], ldc, nc)
					return c, heads, z
				}
				gc, gh, gz := run(false)
				sc, sh, sz := run(true)
				what := fmt.Sprintf("n=%d τ=%v rowHeads=%v", n, tau, rowHeads)
				for y := 0; y < nc; y++ {
					col := orig[y*ldc+1 : y*ldc+1+n]
					var dots float64
					for i, vi := range v {
						dots += Abs(vi) * Abs(col[i])
					}
					if d := Abs(sz[y] - gz[y]); !(d <= 16*eps*float64(n)*dots) {
						t.Fatalf("%s: DotcCols z[%d] = %v, generic %v", what, y, sz[y], gz[y])
					}
					h := y * inc0
					s := Abs(tau) * (Abs(heads0[h]) + dots)
					bound := 16 * eps * float64(n+2)
					if d := Abs(sh[h] - gh[h]); !(d <= bound*(Abs(heads0[h])+s)) {
						t.Fatalf("%s: ReflectCols head %d = %v, generic %v", what, y, sh[h], gh[h])
					}
					for i, vi := range v {
						k := y*ldc + 1 + i
						if d := Abs(sc[k] - gc[k]); !(d <= bound*(Abs(orig[k])+s*Abs(vi))) {
							t.Fatalf("%s: ReflectCols c[%d][%d] = %v, generic %v", what, y, i, sc[k], gc[k])
						}
					}
				}
				for i := range sc {
					if i%ldc > n && (sc[i] != orig[i] || gc[i] != orig[i]) {
						t.Fatalf("%s: ReflectCols wrote between columns at %d", what, i)
					}
				}
			}
		}
	}
}

func TestSIMDComplexColsAgree(t *testing.T) {
	requireSIMD(t)
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	t.Run("z", complexColsAgree[complex128])
	t.Run("c", complexColsAgree[complex64])
}
