package vec

import (
	"math"
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

// naiveGemm is the reference for the packed drivers: c += alpha·op(A)·B.
func naiveGemm(m, n, k int, alpha float64, a []float64, lda int, transA bool, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				var av float64
				if transA {
					av = a[l*lda+i]
				} else {
					av = a[i*lda+l]
				}
				s += av * b[l*ldb+j]
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

func TestSIMDGemmAgree(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(26))
	shapes := [][3]int{
		{1, 4, 1}, {1, 8, 3}, {3, 7, 2}, {4, 8, 1}, {4, 8, 5}, {5, 9, 4},
		{7, 15, 7}, {8, 16, 8}, {9, 17, 3}, {12, 24, 11}, {13, 33, 16},
		{16, 40, 32}, {31, 63, 17}, {32, 64, 32}, {37, 53, 29},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, transA := range []bool{false, true} {
			for _, alpha := range []float64{1, -1, 0.5} {
				lda := k + 2
				if transA {
					lda = m + 2
				}
				ldb, ldc := n+1, n+3
				arows := m
				if transA {
					arows = k
				}
				a := randSlice(arows*lda, rng)
				b := randSlice(k*ldb, rng)
				c0 := randSlice(m*ldc, rng)

				want := append([]float64(nil), c0...)
				naiveGemm(m, n, k, alpha, a, lda, transA, b, ldb, want, ldc)

				got := append([]float64(nil), c0...)
				pack := make([]float64, GemmPackLen[float64](m, n, k))
				gemmF64(m, n, k, alpha, a, lda, transA, b, ldb, got, ldc, pack)
				for i := range got {
					if !closeAt(got[i], want[i], float64(k)+math.Abs(want[i]), tolF64) {
						t.Fatalf("gemmF64 m=%d n=%d k=%d transA=%v α=%g: c[%d]=%g want %g",
							m, n, k, transA, alpha, i, got[i], want[i])
					}
				}

				a32, b32 := toF32(a), toF32(b)
				c32 := toF32(c0)
				w32 := make([]float64, len(c32))
				for i, v := range c32 {
					w32[i] = float64(v)
				}
				wref := append([]float64(nil), w32...)
				af, bf := make([]float64, len(a32)), make([]float64, len(b32))
				for i, v := range a32 {
					af[i] = float64(v)
				}
				for i, v := range b32 {
					bf[i] = float64(v)
				}
				naiveGemm(m, n, k, alpha, af, lda, transA, bf, ldb, wref, ldc)
				g32 := append([]float32(nil), c32...)
				pack32 := make([]float32, GemmPackLen[float32](m, n, k))
				gemmF32(m, n, k, float32(alpha), a32, lda, transA, b32, ldb, g32, ldc, pack32)
				for i := range g32 {
					if !closeAt(float64(g32[i]), wref[i], float64(k)+math.Abs(wref[i]), tolF32) {
						t.Fatalf("gemmF32 m=%d n=%d k=%d transA=%v α=%g: c[%d]=%g want %g",
							m, n, k, transA, alpha, i, g32[i], wref[i])
					}
				}
			}
		}
	}
}

func TestGemmDispatchGates(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	pack := make([]float64, GemmPackLen[float64](64, 64, 64))
	a := make([]float64, 64*64)
	// Degenerate shapes are "handled" (nothing to do) regardless of family.
	if !GemmNN(0, 64, 64, 1.0, a, 64, a, 64, a, 64, pack) {
		t.Error("GemmNN(m=0) should report handled")
	}
	SetSIMD(false)
	if GemmNN(64, 64, 64, 1.0, a, 64, a, 64, a, 64, pack) {
		t.Error("GemmNN handled a product with the backend disabled")
	}
	if SIMDSupported() {
		SetSIMD(true)
		if GemmNN(64, 64, 64, 1.0, a, 64, a, 64, a, 64, pack[:4]) {
			t.Error("GemmNN handled a product with insufficient pack scratch")
		}
		zz := make([]complex128, 64*64)
		if GemmNN(64, 64, 64, complex(1, 0), zz, 64, zz, 64, zz, 64, make([]complex128, 8)) {
			t.Error("GemmNN handled a complex product")
		}
	}
}

// FuzzVecSIMD cross-checks the assembly kernels against the generic loops
// on fuzzer-chosen lengths, offsets and raw float64 bit patterns. Non-
// finite values are legal inputs: the families must then agree on
// non-finiteness (exact NaN/Inf placement may differ at the overflow
// boundary because FMA skips the intermediate rounding).
func FuzzVecSIMD(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(33), uint8(3), []byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(2), uint8(16), uint8(0), []byte{0, 0, 0, 0, 0, 0, 240, 127})
	f.Add(uint8(3), uint8(65), uint8(2), []byte{1, 0, 0, 0, 0, 0, 240, 255})
	f.Fuzz(func(t *testing.T, op, nRaw, offRaw uint8, raw []byte) {
		if !SIMDSupported() {
			t.Skip("no SIMD backend")
		}
		n := int(nRaw) % 130
		off := int(offRaw) % 4
		vals := make([]float64, 0, 2*(n+off)+2)
		for i := 0; i+8 <= len(raw) && len(vals) < cap(vals); i += 8 {
			bits := uint64(0)
			for b := 0; b < 8; b++ {
				bits = bits<<8 | uint64(raw[i+b])
			}
			vals = append(vals, math.Float64frombits(bits))
		}
		rng := rand.New(rand.NewSource(int64(n)*7 + int64(off)))
		for len(vals) < cap(vals) {
			vals = append(vals, rng.NormFloat64())
		}
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

		switch op % 3 {
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

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
