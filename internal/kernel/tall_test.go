package kernel

import (
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// TestTallTileForms holds the kernels a factorization runs on tile rows
// 2·nb and 4·nb tall (tile.FactorGrid) to the GEMM heads, on the scratch
// the engine hands its workers for them, TileWorkLen(mb, nb, ib): GEQRT's
// in-tile updates, UNMQR in both directions and TSMQR from an mb-row B,
// every panel on the heads, T·W included, with SIMD on and the sweeps
// without, in all four precisions. On WorkLen(nb, ib) the heads decline
// these shapes and the applies fall back to the sweeps.
func TestTallTileForms(t *testing.T) {
	for _, sh := range []struct{ nb, ib int }{{32, 8}, {48, 12}, {64, 16}, {128, 32}} {
		if got, want := TileWorkLen(sh.nb, sh.nb, sh.ib), WorkLen(sh.nb, sh.ib); got != want {
			t.Errorf("nb=%d ib=%d: TileWorkLen on square tiles is %d, WorkLen %d", sh.nb, sh.ib, got, want)
		}
	}
	var forms [4]int
	applyHook = func(f applyForm) { forms[f]++ }
	defer func() { applyHook = nil }()
	eachFamily(t, func(t *testing.T) {
		t.Run("s", func(t *testing.T) { tallForms[float32](t, &forms) })
		t.Run("d", func(t *testing.T) { tallForms[float64](t, &forms) })
		t.Run("c", func(t *testing.T) { tallForms[complex64](t, &forms) })
		t.Run("z", func(t *testing.T) { tallForms[complex128](t, &forms) })
	})
}

func tallForms[T vec.Scalar](t *testing.T, forms *[4]int) {
	simd := vec.SIMDEnabled()
	for _, sh := range []struct{ nb, ib int }{{32, 8}, {48, 12}, {64, 16}, {128, 32}} {
		nb, ib := sh.nb, sh.ib
		panels := nb / ib
		for _, mb := range []int{2 * nb, 4 * nb} {
			work := make([]T, TileWorkLen(mb, nb, ib))
			v, tv := tile.RandDense[T](mb, nb, 1), make([]T, ib*nb)
			*forms = [4]int{}
			GEQRT(mb, nb, ib, v.Data, nb, tv, nb, work)
			if forms[formNarrow] != 0 || forms[formGemm]+forms[formSweeps] != panels-1 || onHeads(forms, panels-1) != simd {
				t.Fatalf("nb=%d GEQRT m=%d: in-tile updates took forms %v, want all %d on the GEMM heads iff SIMD (%v)",
					nb, mb, *forms, panels-1, simd)
			}
			_, vts, tts := tpFactor(t, mb, nb, 0, ib, randUpperTri[T](nb, 2), tile.RandDense[T](mb, nb, 3))
			for _, trans := range []bool{true, false} {
				for _, k := range []struct {
					name  string
					apply func()
				}{
					{"UNMQR", func() {
						UNMQR(trans, mb, nb, ib, v.Data, nb, tv, nb, tile.RandDense[T](mb, nb, 4).Data, nb, nb, work)
					}},
					{"TSMQR", func() {
						TSMQR(trans, mb, nb, ib, vts.Data, nb, tts, nb,
							tile.RandDense[T](nb, nb, 5).Data, nb, tile.RandDense[T](mb, nb, 6).Data, nb, nb, work)
					}},
				} {
					*forms = [4]int{}
					k.apply()
					if forms[formNarrow] != 0 || forms[formGemm]+forms[formSweeps] != panels || onHeads(forms, panels) != simd {
						t.Fatalf("nb=%d %s m=%d trans=%v: forms %v, want all %d panels on the GEMM heads iff SIMD (%v)",
							nb, k.name, mb, trans, *forms, panels, simd)
					}
				}
			}
		}
	}
}
