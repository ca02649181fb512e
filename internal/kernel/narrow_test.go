package kernel

import (
	"fmt"
	"math"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// The vector-form appliers (nc < vec.GemmMinCols) and the block-reflector
// path are two implementations of one operator: applying Q or Qᴴ to the
// first nc columns of C must give the matching columns of the same call at
// nc = 8, up to rounding. The tolerances are the cross-backend ones of the
// root simd_agreement_test.go (1e-11 relative in double, 2e-4 in single):
// the two paths differ exactly as two vec families do, in accumulation
// order.

// narrowTol returns the agreement tolerance for T relative to the scale of
// the operands.
func narrowTol[T vec.Scalar]() float64 {
	switch any(*new(T)).(type) {
	case float32, complex64:
		return 2e-4
	}
	return 1e-11
}

// eachFamily runs f under every vec kernel family the host offers and
// restores the active one.
func eachFamily(t *testing.T, f func(t *testing.T)) {
	prev := vec.ActiveFamily()
	defer func() {
		if err := vec.SetFamily(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, fam := range vec.Families() {
		if err := vec.SetFamily(fam); err != nil {
			t.Fatal(err)
		}
		t.Run(fam, f)
	}
}

// stridedC returns a random r×13 array; the tests apply to the r×8 view at
// column offset 3 of it (and of its clones), so C is strided and offset.
func stridedC[T vec.Scalar](r int, seed int64) *tile.Dense[T] {
	return tile.RandDense[T](r, 13, seed)
}

// checkNarrowCols compares the first nc columns of got with want and
// requires everything else in got's backing array to equal orig (the narrow
// call must not touch columns beyond nc or outside the view).
func checkNarrowCols[T vec.Scalar](t *testing.T, what string, nc int, got, want, orig *tile.Dense[T]) {
	t.Helper()
	tol := narrowTol[T]() * tile.FrobNorm(orig)
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if j >= 3 && j < 3+nc {
				if d := vec.Abs(got.At(i, j) - want.At(i, j)); !(d <= tol) {
					t.Fatalf("%s: (%d,%d) narrow %v vs general %v (|diff| %g > %g)",
						what, i, j-3, got.At(i, j), want.At(i, j), d, tol)
				}
			} else if got.At(i, j) != orig.At(i, j) {
				t.Fatalf("%s: touched element (%d,%d) outside its %d columns", what, i, j-3, nc)
			}
		}
	}
}

func testNarrowUNMQR[T vec.Scalar](t *testing.T) {
	// Ragged on every axis: m > k, k not a multiple of ib, and ib ≥ the SIMD
	// dispatch length so the vector backend serves the bulk rows.
	const m, k, ib = 45, 37, 16
	v := tile.RandDense[T](m, k, 1)
	tf := make([]T, ib*k)
	GEQRT(m, k, ib, v.Data, v.Stride, tf, k, nil)
	nan := vec.FromParts[T](math.NaN(), math.NaN())
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			v.Set(i, j, nan) // R is not part of V: no applier may read it
		}
	}
	for _, trans := range []bool{true, false} {
		orig := stridedC[T](m, 2)
		want := orig.Clone()
		wv := want.View(0, 3, m, 8)
		UNMQR(trans, m, k, ib, v.Data, v.Stride, tf, k, wv.Data, wv.Stride, 8, nil)
		for nc := 1; nc < vec.GemmMinCols; nc++ {
			got := orig.Clone()
			gv := got.View(0, 3, m, 8)
			UNMQR(trans, m, k, ib, v.Data, v.Stride, tf, k, gv.Data, gv.Stride, nc, nil)
			checkNarrowCols(t, fmt.Sprintf("UNMQR trans=%v nc=%d", trans, nc), nc, got, want, orig)
		}
	}
}

func testNarrowTPMQRT[T vec.Scalar](t *testing.T) {
	const k, ib = 37, 16
	nan := vec.FromParts[T](math.NaN(), math.NaN())
	// l = 0 (TS), a partial trapezoid, and l = min(m,k) (TT) for m > k,
	// m < k and m = k.
	for _, sh := range []struct{ m, l int }{{41, 0}, {41, 13}, {41, 37}, {20, 20}, {37, 37}} {
		m, l := sh.m, sh.l
		_, v, tf := tpFactor(t, m, k, l, ib, randUpperTri[T](k, 3), randPent[T](m, k, l, 4))
		for j := 0; j < k; j++ {
			for i := pentRows(m, l, j); i < m; i++ {
				v.Set(i, j, nan) // outside the pentagon: not part of V
			}
		}
		for _, trans := range []bool{true, false} {
			orig1, orig2 := stridedC[T](k, 5), stridedC[T](m, 6)
			want1, want2 := orig1.Clone(), orig2.Clone()
			w1, w2 := want1.View(0, 3, k, 8), want2.View(0, 3, m, 8)
			TPMQRT(trans, m, k, l, ib, v.Data, v.Stride, tf, k, w1.Data, w1.Stride, w2.Data, w2.Stride, 8, nil)
			for nc := 1; nc < vec.GemmMinCols; nc++ {
				got1, got2 := orig1.Clone(), orig2.Clone()
				g1, g2 := got1.View(0, 3, k, 8), got2.View(0, 3, m, 8)
				TPMQRT(trans, m, k, l, ib, v.Data, v.Stride, tf, k, g1.Data, g1.Stride, g2.Data, g2.Stride, nc, nil)
				what := fmt.Sprintf("TPMQRT m=%d l=%d trans=%v nc=%d", m, l, trans, nc)
				checkNarrowCols(t, what+" C1", nc, got1, want1, orig1)
				checkNarrowCols(t, what+" C2", nc, got2, want2, orig2)
			}
		}
	}
}

func TestNarrowAppliersMatchGeneralPath(t *testing.T) {
	eachFamily(t, func(t *testing.T) {
		t.Run("double", func(t *testing.T) { testNarrowUNMQR[float64](t); testNarrowTPMQRT[float64](t) })
		t.Run("single", func(t *testing.T) { testNarrowUNMQR[float32](t); testNarrowTPMQRT[float32](t) })
		t.Run("double-complex", func(t *testing.T) { testNarrowUNMQR[complex128](t); testNarrowTPMQRT[complex128](t) })
		t.Run("single-complex", func(t *testing.T) { testNarrowUNMQR[complex64](t); testNarrowTPMQRT[complex64](t) })
	})
}

// TestApplyFormByWidth pins which form the appliers take at (nb, ib) =
// (32, 8), (48, 12), (64, 16) and (128, 32) — small_fleet's tile, the
// tuner's smallest, the paper's and the library default — with the
// scratch the engine hands a solve: one right-hand side takes the
// vector form (applyPanelNarrow, applyPentPanelNarrow), eight and a whole
// tile width take the block-reflector form, for UNMQR, TSMQR and TTMQR in
// both directions, every precision and vec family. In the block form, in
// the factor kernels' in-tile updates on WorkLen scratch, and in TSQRT and
// TSMQR on a stream's 2·nb-row batch tile, every panel takes the GEMM
// heads, T·W included, with SIMD on and the sweeps without.
func TestApplyFormByWidth(t *testing.T) {
	var forms [4]int
	applyHook = func(f applyForm) { forms[f]++ }
	defer func() { applyHook = nil }()
	eachFamily(t, func(t *testing.T) {
		t.Run("s", func(t *testing.T) { applyForms[float32](t, &forms) })
		t.Run("d", func(t *testing.T) { applyForms[float64](t, &forms) })
		t.Run("c", func(t *testing.T) { applyForms[complex64](t, &forms) })
		t.Run("z", func(t *testing.T) { applyForms[complex128](t, &forms) })
	})
}

func applyForms[T vec.Scalar](t *testing.T, forms *[4]int) {
	for _, sh := range []struct{ nb, ib int }{{32, 8}, {48, 12}, {64, 16}, {128, 32}} {
		applyFormsAt[T](t, sh.nb, sh.ib, forms)
	}
}

// onHeads reports whether forms shows all of panels block-form applies on
// the GEMM heads, T·W included.
func onHeads(forms *[4]int, panels int) bool {
	return forms[formGemm] == panels && forms[formTriW] == 0
}

func applyFormsAt[T vec.Scalar](t *testing.T, nb, ib int, forms *[4]int) {
	v := tile.RandDense[T](nb, nb, 1)
	tv := make([]T, ib*nb)
	GEQRT(nb, nb, ib, v.Data, nb, tv, nb, nil)
	_, vts, tts := tpFactor(t, nb, nb, 0, ib, randUpperTri[T](nb, 2), tile.RandDense[T](nb, nb, 3))
	_, vtt, ttt := tpFactor(t, nb, nb, nb, ib, randUpperTri[T](nb, 4), randUpperTri[T](nb, 5))
	simd := vec.SIMDEnabled()
	for _, nc := range []int{1, 8, nb} {
		for _, trans := range []bool{true, false} {
			c1, c2 := tile.RandDense[T](nb, nc, 6), tile.RandDense[T](nb, nc, 7)
			work := make([]T, ApplyWorkLen(nb, ib, nc))
			for _, k := range []struct {
				name  string
				apply func()
			}{
				{"UNMQR", func() { UNMQR(trans, nb, nb, ib, v.Data, nb, tv, nb, c2.Data, nc, nc, work) }},
				{"TSMQR", func() { TSMQR(trans, nb, nb, ib, vts.Data, nb, tts, nb, c1.Data, nc, c2.Data, nc, nc, work) }},
				{"TTMQR", func() { TTMQR(trans, nb, nb, ib, vtt.Data, nb, ttt, nb, c1.Data, nc, c2.Data, nc, nc, work) }},
			} {
				*forms = [4]int{}
				k.apply()
				narrow, block := forms[formNarrow], forms[formSweeps]+forms[formGemm]
				if nc == 1 && (narrow != nb/ib || block != 0) || nc > 1 && (narrow != 0 || block != nb/ib) {
					t.Fatalf("nb=%d %s nc=%d trans=%v: %d panels in the vector form, %d in the block form",
						nb, k.name, nc, trans, narrow, block)
				}
				if nc > 1 && onHeads(forms, nb/ib) != simd {
					t.Fatalf("nb=%d %s nc=%d trans=%v: forms %v, want every panel on the GEMM heads iff SIMD (%v)",
						nb, k.name, nc, trans, *forms, simd)
				}
			}
		}
	}
	work := make([]T, WorkLen(nb, ib))
	for _, k := range []struct {
		name   string
		factor func()
	}{
		{"GEQRT", func() { GEQRT(nb, nb, ib, tile.RandDense[T](nb, nb, 8).Data, nb, make([]T, ib*nb), nb, work) }},
		{"TSQRT", func() {
			TSQRT(nb, nb, ib, randUpperTri[T](nb, 9).Data, nb, tile.RandDense[T](nb, nb, 10).Data, nb, make([]T, ib*nb), nb, work)
		}},
		{"TTQRT", func() {
			TTQRT(nb, nb, ib, randUpperTri[T](nb, 11).Data, nb, randUpperTri[T](nb, 12).Data, nb, make([]T, ib*nb), nb, work)
		}},
	} {
		*forms = [4]int{}
		k.factor()
		updates := nb/ib - 1 // the last panel has no trailing columns
		if forms[formNarrow] != 0 || forms[formGemm]+forms[formSweeps] != updates || onHeads(forms, updates) != simd {
			t.Fatalf("nb=%d %s: in-tile updates took forms %v, want all %d on the GEMM heads iff SIMD (%v)",
				nb, k.name, *forms, updates, simd)
		}
	}
	// A stream stages batch tiles 2·nb rows tall and sizes its merge
	// scratch FactorWorkLen stretched to ApplyWorkLen at that height: there
	// TSQRT's in-tile updates and TSMQR from its reflectors onto a full
	// tile take the GEMM heads as on a square tile.
	h := 2 * nb
	work = make([]T, max(FactorWorkLen(h, nb, ib), ApplyWorkLen(h, ib, nb)))
	b, tb := tile.RandDense[T](h, nb, 13), make([]T, ib*nb)
	*forms = [4]int{}
	TSQRT(h, nb, ib, randUpperTri[T](nb, 14).Data, nb, b.Data, nb, tb, nb, work)
	if updates := nb/ib - 1; forms[formNarrow] != 0 || forms[formGemm]+forms[formSweeps] != updates || onHeads(forms, updates) != simd {
		t.Fatalf("nb=%d TSQRT m=%d: in-tile updates took forms %v, want all %d on the GEMM heads iff SIMD (%v)",
			nb, h, *forms, updates, simd)
	}
	*forms = [4]int{}
	TSMQR(true, h, nb, ib, b.Data, nb, tb, nb, tile.RandDense[T](nb, nb, 15).Data, nb, tile.RandDense[T](h, nb, 16).Data, nb, nb, work)
	if forms[formNarrow] != 0 || forms[formGemm]+forms[formSweeps] != nb/ib || onHeads(forms, nb/ib) != simd {
		t.Fatalf("nb=%d TSMQR m=%d: forms %v, want all %d panels on the GEMM heads iff SIMD (%v)", nb, h, *forms, nb/ib, simd)
	}
}
