package tiledqr

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"tiledqr/internal/kernel"
	"tiledqr/internal/vec"
)

// Cross-backend agreement: the generic Go loops and the SIMD vector backend
// (AVX2/FMA or NEON) are two implementations of the same kernels, differing
// only in floating-point rounding — the vector code fuses multiply-adds and
// accumulates in a different order. These tests factor identical data under
// both backends across every parameter-free algorithm, both TT/TS kernel
// selections and all four precisions, and bound the divergence of R, the
// least-squares solution and the streaming triangle.
//
// Tolerances: each entry of R is an O(m)-term accumulation, so the per-entry
// divergence is bounded by roughly m·ε·‖A‖F. At m ≤ 96 that is ~1e-14·‖A‖F
// in double precision; tolSIMD64 = 1e-11 leaves two orders of headroom
// without masking real defects (a wrong kernel misses by O(‖A‖F), eleven
// orders away). Single precision reuses the suite-wide tol32 (2e-4
// relative), which already dominates any backend-rounding difference.
// Least-squares amplifies by the conditioning; the random normal systems
// here are well-conditioned, so one extra order (tolSIMDLS) is enough.
const (
	tolSIMD64 = 1e-11
	tolSIMDLS = 1e-10
)

// simdAgreeLegs are the tilings of the cross-backend suite, each with the
// shapes its Factor and SolveLS tests use. The tile size must be large
// enough that the vector backend actually engages (row updates at nc ≥ 16
// pass the slice-length dispatch gate). Both legs run every factor and
// update kernel's block-reflector applies on the packed micro-GEMM in
// every precision: nb 24 / ib 8 keeps the grids multi-tile at small shapes
// and puts the small-tile products there, down to the 8×16×16 of a GEQRT's
// first in-tile update and the 8×nc×8 T·W, while its 2-column solves take
// the vector form; nb 64 / ib 16 does the same at the paper's tile and, at
// 8 right-hand sides, runs its solves on the packed path too.
var simdAgreeLegs = []struct{ nb, ib, m, n, lsN, nrhs int }{
	{nb: 24, ib: 8, m: 96, n: 48, lsN: 24, nrhs: 2},
	{nb: 64, ib: 16, m: 160, n: 96, lsN: 96, nrhs: 8},
}

// simdAgreeOpts is the algorithm grid of the cross-backend suite at one
// tiling.
func simdAgreeOpts(nb, ib int) []Options {
	var opts []Options
	for _, alg := range Algorithms {
		for _, kern := range []Kernels{TT, TS} {
			opts = append(opts, Options{Algorithm: alg, Kernels: kern, TileSize: nb, InnerBlock: ib, Workers: 2})
		}
	}
	return opts
}

// requirePackedGemm fails unless the first in-tile update of a GEQRT on an
// nb×nb tile — an ib×(nb−ib)×(nb−ib) product, 8×16×16 and 16×48×48 for the
// two legs —
// takes the packed micro-GEMM in every precision with the workspace the
// engine gives a worker. Were the pack bound to slip below a domain's need,
// that domain would silently drop to its scalar sweeps and the agreement
// tests would still pass. Call it with the SIMD family active.
func requirePackedGemm(t *testing.T, nb, ib int) {
	t.Helper()
	ws, d := kernel.WorkLen(nb, ib), nb-ib
	if !vec.GemmOK[float32](ib, d, d, ws) || !vec.GemmOK[float64](ib, d, d, ws) ||
		!vec.GemmOK[complex64](ib, d, d, ws) || !vec.GemmOK[complex128](ib, d, d, ws) {
		t.Fatalf("the packed micro-GEMM declines a %d×%d×%d product in some precision with kernel.WorkLen(%d, %d) = %d",
			ib, d, d, nb, ib, ws)
	}
}

// bothFamilies runs f once per vec kernel family and restores the backend
// afterwards. It skips — rather than vacuously passes — when the binary has
// no vector backend (noasm build, unsupported CPU) or the backend was
// disabled at startup (TILEDQR_SIMD=off): those legs have only one family.
func bothFamilies(t *testing.T, f func(t *testing.T, family string)) {
	t.Helper()
	if !vec.SIMDSupported() {
		t.Skip("no SIMD backend in this binary/host; single-family agreement is vacuous")
	}
	if !vec.SIMDEnabled() {
		t.Skip("SIMD backend disabled at startup (TILEDQR_SIMD=off)")
	}
	prev := vec.ActiveFamily()
	t.Cleanup(func() {
		if err := vec.SetFamily(prev); err != nil {
			t.Fatal(err)
		}
	})
	for _, fam := range vec.Families() {
		if err := vec.SetFamily(fam); err != nil {
			t.Fatal(err)
		}
		f(t, fam)
	}
}

// TestSIMDFamilyAgreementFactor factors one matrix per precision under both
// backends and compares R entrywise (up to reflector row signs) across the
// full algorithm × kernel grid, at every tiling of simdAgreeLegs.
func TestSIMDFamilyAgreementFactor(t *testing.T) {
	for _, leg := range simdAgreeLegs {
		t.Run(fmt.Sprintf("nb=%d", leg.nb), func(t *testing.T) {
			testFamilyAgreementFactor(t, leg.m, leg.n, leg.nb, leg.ib)
		})
	}
}

func testFamilyAgreementFactor(t *testing.T, m, n, nb, ib int) {
	a := RandomDense(m, n, 41)
	za := RandomMat[complex128](m, n, 42)
	a32 := NewMat[float32](m, n)
	ca := NewMat[complex64](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a32.Set(i, j, float32(a.At(i, j)))
			v := za.At(i, j)
			ca.Set(i, j, complex(float32(real(v)), float32(imag(v))))
		}
	}
	scale := FrobeniusNormOf(a)
	zscale := FrobeniusNormOf(za)
	for _, opt := range simdAgreeOpts(nb, ib) {
		rs := map[string]*Dense{}
		zrs := map[string]*ZDense{}
		r32s := map[string]*Dense32{}
		crs := map[string]*CDense{}
		bothFamilies(t, func(t *testing.T, fam string) {
			if fam == vec.FamilySIMD {
				requirePackedGemm(t, nb, ib)
			}
			f, err := Factor(a, opt)
			if err != nil {
				t.Fatalf("%v/%v %s: %v", opt.Algorithm, opt.Kernels, fam, err)
			}
			rs[fam] = f.R()
			zf, err := FactorComplex(za, opt)
			if err != nil {
				t.Fatalf("%v/%v %s complex: %v", opt.Algorithm, opt.Kernels, fam, err)
			}
			zrs[fam] = zf.R()
			f32, err := FactorOf(nil, a32, opt)
			if err != nil {
				t.Fatalf("%v/%v %s float32: %v", opt.Algorithm, opt.Kernels, fam, err)
			}
			r32s[fam] = f32.R()
			cf, err := FactorOf(nil, ca, opt)
			if err != nil {
				t.Fatalf("%v/%v %s complex64: %v", opt.Algorithm, opt.Kernels, fam, err)
			}
			crs[fam] = cf.R()
		})
		if len(rs) < 2 {
			return // skipped: single family
		}
		ref, got := rs[vec.FamilyGeneric], rs[vec.FamilySIMD]
		for i := 0; i < ref.Rows; i++ {
			s := rowSign(ref.At(i, i), got.At(i, i))
			for j := i; j < n; j++ {
				if d := math.Abs(ref.At(i, j) - s*got.At(i, j)); d > tolSIMD64*scale {
					t.Fatalf("%v/%v: R(%d,%d) generic %g vs simd %g (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, ref.At(i, j), s*got.At(i, j), d)
				}
			}
		}
		zref, zgot := zrs[vec.FamilyGeneric], zrs[vec.FamilySIMD]
		for i := 0; i < zref.Rows; i++ {
			s := complex(rowSign(real(zref.At(i, i)), real(zgot.At(i, i))), 0)
			for j := i; j < n; j++ {
				if d := cmplx.Abs(zref.At(i, j) - s*zgot.At(i, j)); d > tolSIMD64*zscale {
					t.Fatalf("%v/%v: complex R(%d,%d) generic %v vs simd %v (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, zref.At(i, j), s*zgot.At(i, j), d)
				}
			}
		}
		ref32, got32 := r32s[vec.FamilyGeneric], r32s[vec.FamilySIMD]
		for i := 0; i < ref32.Rows; i++ {
			s := float32(rowSign(float64(ref32.At(i, i)), float64(got32.At(i, i))))
			for j := i; j < n; j++ {
				if d := math.Abs(float64(ref32.At(i, j) - s*got32.At(i, j))); d > tol32*scale {
					t.Fatalf("%v/%v: float32 R(%d,%d) generic %g vs simd %g (diff %g)",
						opt.Algorithm, opt.Kernels, i, j, ref32.At(i, j), s*got32.At(i, j), d)
				}
			}
		}
		cref, cgot := crs[vec.FamilyGeneric], crs[vec.FamilySIMD]
		for i := 0; i < cref.Rows; i++ {
			s := complex(float32(rowSign(float64(real(cref.At(i, i))), float64(real(cgot.At(i, i))))), 0)
			for j := i; j < n; j++ {
				d := cref.At(i, j) - s*cgot.At(i, j)
				if cmplx.Abs(complex(float64(real(d)), float64(imag(d)))) > tol32*zscale {
					t.Fatalf("%v/%v: complex64 R(%d,%d) generic %v vs simd %v",
						opt.Algorithm, opt.Kernels, i, j, cref.At(i, j), cgot.At(i, j))
				}
			}
		}
	}
}

// TestSIMDFamilyAgreementSolveLS solves the same least-squares system under
// both backends in every precision, at every tiling of simdAgreeLegs; row
// signs cancel in x, so the solutions compare directly.
func TestSIMDFamilyAgreementSolveLS(t *testing.T) {
	for _, leg := range simdAgreeLegs {
		t.Run(fmt.Sprintf("nb=%d", leg.nb), func(t *testing.T) {
			testFamilyAgreementSolveLS(t, leg.m, leg.lsN, leg.nrhs, leg.nb, leg.ib)
		})
	}
}

func testFamilyAgreementSolveLS(t *testing.T, m, n, nrhs, nb, ib int) {
	opt := Options{Algorithm: Greedy, TileSize: nb, InnerBlock: ib, Workers: 2}
	a := RandomDense(m, n, 43)
	b := RandomDense(m, nrhs, 44)
	za := RandomMat[complex128](m, n, 45)
	zb := RandomMat[complex128](m, nrhs, 46)
	a32, b32 := NewMat[float32](m, n), NewMat[float32](m, nrhs)
	ca, cb := NewMat[complex64](m, n), NewMat[complex64](m, nrhs)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a32.Set(i, j, float32(a.At(i, j)))
			v := za.At(i, j)
			ca.Set(i, j, complex(float32(real(v)), float32(imag(v))))
		}
		for j := 0; j < nrhs; j++ {
			b32.Set(i, j, float32(b.At(i, j)))
			v := zb.At(i, j)
			cb.Set(i, j, complex(float32(real(v)), float32(imag(v))))
		}
	}
	xs := map[string]*Dense{}
	zxs := map[string]*ZDense{}
	x32s := map[string]*Dense32{}
	cxs := map[string]*CDense{}
	bothFamilies(t, func(t *testing.T, fam string) {
		if fam == vec.FamilySIMD {
			requirePackedGemm(t, nb, ib)
		}
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if xs[fam], err = f.SolveLS(b); err != nil {
			t.Fatal(err)
		}
		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatal(err)
		}
		if zxs[fam], err = zf.SolveLS(zb); err != nil {
			t.Fatal(err)
		}
		f32, err := FactorOf(nil, a32, opt)
		if err != nil {
			t.Fatal(err)
		}
		if x32s[fam], err = f32.SolveLS(b32); err != nil {
			t.Fatal(err)
		}
		cf, err := FactorOf(nil, ca, opt)
		if err != nil {
			t.Fatal(err)
		}
		if cxs[fam], err = cf.SolveLS(cb); err != nil {
			t.Fatal(err)
		}
	})
	if len(xs) < 2 {
		return // skipped: single family
	}
	for i := 0; i < n; i++ {
		for j := 0; j < nrhs; j++ {
			if d := math.Abs(xs[vec.FamilyGeneric].At(i, j) - xs[vec.FamilySIMD].At(i, j)); d > tolSIMDLS {
				t.Fatalf("x(%d,%d): generic %g vs simd %g", i, j,
					xs[vec.FamilyGeneric].At(i, j), xs[vec.FamilySIMD].At(i, j))
			}
			if d := cmplx.Abs(zxs[vec.FamilyGeneric].At(i, j) - zxs[vec.FamilySIMD].At(i, j)); d > tolSIMDLS {
				t.Fatalf("complex x(%d,%d): generic %v vs simd %v", i, j,
					zxs[vec.FamilyGeneric].At(i, j), zxs[vec.FamilySIMD].At(i, j))
			}
			if d := math.Abs(float64(x32s[vec.FamilyGeneric].At(i, j) - x32s[vec.FamilySIMD].At(i, j))); d > 1e-3 {
				t.Fatalf("float32 x(%d,%d): generic %g vs simd %g", i, j,
					x32s[vec.FamilyGeneric].At(i, j), x32s[vec.FamilySIMD].At(i, j))
			}
			cd := cxs[vec.FamilyGeneric].At(i, j) - cxs[vec.FamilySIMD].At(i, j)
			if cmplx.Abs(complex(float64(real(cd)), float64(imag(cd)))) > 1e-3 {
				t.Fatalf("complex64 x(%d,%d): generic %v vs simd %v", i, j,
					cxs[vec.FamilyGeneric].At(i, j), cxs[vec.FamilySIMD].At(i, j))
			}
		}
	}
}

// TestSIMDFamilyAgreementStream ingests identical row batches into a
// streaming TSQR under both backends in every precision and compares the
// resident triangles (up to row signs).
func TestSIMDFamilyAgreementStream(t *testing.T) {
	const n, rows, batch = 32, 96, 24
	opt := Options{TileSize: 16, InnerBlock: 8}
	a := RandomDense(rows, n, 47)
	za := RandomMat[complex128](rows, n, 48)
	a32 := NewMat[float32](rows, n)
	ca := NewMat[complex64](rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			a32.Set(i, j, float32(a.At(i, j)))
			v := za.At(i, j)
			ca.Set(i, j, complex(float32(real(v)), float32(imag(v))))
		}
	}
	scale := FrobeniusNormOf(a)
	zscale := FrobeniusNormOf(za)
	rs := map[string]*Dense{}
	zrs := map[string]*ZDense{}
	r32s := map[string]*Dense32{}
	crs := map[string]*CDense{}
	bothFamilies(t, func(t *testing.T, fam string) {
		s, err := NewStreamOf[float64](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		zs, err := NewStreamOf[complex128](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		s32, err := NewStreamOf[float32](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewStreamOf[complex64](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		for r0 := 0; r0 < rows; r0 += batch {
			view := NewMat[float64](batch, n)
			zview := NewMat[complex128](batch, n)
			view32 := NewMat[float32](batch, n)
			cview := NewMat[complex64](batch, n)
			for i := 0; i < batch; i++ {
				for j := 0; j < n; j++ {
					view.Set(i, j, a.At(r0+i, j))
					zview.Set(i, j, za.At(r0+i, j))
					view32.Set(i, j, a32.At(r0+i, j))
					cview.Set(i, j, ca.At(r0+i, j))
				}
			}
			if err := s.AppendRows(view); err != nil {
				t.Fatal(err)
			}
			if err := zs.AppendRows(zview); err != nil {
				t.Fatal(err)
			}
			if err := s32.AppendRows(view32); err != nil {
				t.Fatal(err)
			}
			if err := cs.AppendRows(cview); err != nil {
				t.Fatal(err)
			}
		}
		if rs[fam], err = s.R(); err != nil {
			t.Fatal(err)
		}
		if zrs[fam], err = zs.R(); err != nil {
			t.Fatal(err)
		}
		if r32s[fam], err = s32.R(); err != nil {
			t.Fatal(err)
		}
		if crs[fam], err = cs.R(); err != nil {
			t.Fatal(err)
		}
	})
	if len(rs) < 2 {
		return // skipped: single family
	}
	ref, got := rs[vec.FamilyGeneric], rs[vec.FamilySIMD]
	zref, zgot := zrs[vec.FamilyGeneric], zrs[vec.FamilySIMD]
	ref32, got32 := r32s[vec.FamilyGeneric], r32s[vec.FamilySIMD]
	cref, cgot := crs[vec.FamilyGeneric], crs[vec.FamilySIMD]
	for i := 0; i < n; i++ {
		s := rowSign(ref.At(i, i), got.At(i, i))
		zsgn := complex(rowSign(real(zref.At(i, i)), real(zgot.At(i, i))), 0)
		s32 := float32(rowSign(float64(ref32.At(i, i)), float64(got32.At(i, i))))
		csgn := complex(float32(rowSign(float64(real(cref.At(i, i))), float64(real(cgot.At(i, i))))), 0)
		for j := i; j < n; j++ {
			if d := math.Abs(ref.At(i, j) - s*got.At(i, j)); d > tolSIMD64*scale {
				t.Fatalf("stream R(%d,%d): generic %g vs simd %g (diff %g)", i, j, ref.At(i, j), s*got.At(i, j), d)
			}
			if d := cmplx.Abs(zref.At(i, j) - zsgn*zgot.At(i, j)); d > tolSIMD64*zscale {
				t.Fatalf("complex stream R(%d,%d): generic %v vs simd %v (diff %g)", i, j, zref.At(i, j), zsgn*zgot.At(i, j), d)
			}
			if d := math.Abs(float64(ref32.At(i, j) - s32*got32.At(i, j))); d > tol32*scale {
				t.Fatalf("float32 stream R(%d,%d): generic %g vs simd %g", i, j, ref32.At(i, j), s32*got32.At(i, j))
			}
			cd := cref.At(i, j) - csgn*cgot.At(i, j)
			if cmplx.Abs(complex(float64(real(cd)), float64(imag(cd)))) > tol32*zscale {
				t.Fatalf("complex64 stream R(%d,%d): generic %v vs simd %v", i, j, cref.At(i, j), cgot.At(i, j))
			}
		}
	}
}
