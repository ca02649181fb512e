package tiledqr

import (
	"math"
	"math/cmplx"
	"testing"
	"time"

	"tiledqr/internal/tile"
)

// A single right-hand side takes the vector form of the Q appliers (columns
// below vec.GemmMinCols), eight take the block-reflector path. Both apply
// the same Q, so the 1-RHS solution must be column 0 of the 8-RHS solution,
// across every parameter-free algorithm and both kernel families, in the
// tolerance the cross-backend suite uses for least squares (tolSIMDLS). The
// shapes are ragged and ib = 16 reaches the SIMD dispatch length, so the
// vector backend serves the bulk rows.

func narrowSolveOpts() []Options { return simdAgreeOpts(40, 16) }

func TestSolveLSOneRHSMatchesEightRHS(t *testing.T) {
	const m, n = 130, 70
	a, b8 := RandomDense(m, n, 51), RandomDense(m, 8, 52)
	za, zb8 := RandomZDense(m, n, 53), RandomZDense(m, 8, 54)
	b1, zb1 := NewDense(m, 1), NewZDense(m, 1)
	for i := 0; i < m; i++ {
		b1.Set(i, 0, b8.At(i, 0))
		zb1.Set(i, 0, zb8.At(i, 0))
	}
	for _, opt := range narrowSolveOpts() {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatalf("%v/%v: %v", opt.Algorithm, opt.Kernels, err)
		}
		x8, err8 := f.SolveLS(b8)
		x1, err1 := f.SolveLS(b1)
		if err8 != nil || err1 != nil {
			t.Fatalf("%v/%v: SolveLS: %v, %v", opt.Algorithm, opt.Kernels, err8, err1)
		}
		scale := FrobeniusNorm(x8)
		for i := 0; i < n; i++ {
			if d := math.Abs(x1.At(i, 0) - x8.At(i, 0)); !(d <= tolSIMDLS*scale) {
				t.Fatalf("%v/%v: x(%d) 1 RHS %g vs column 0 of 8 RHS %g (diff %g)",
					opt.Algorithm, opt.Kernels, i, x1.At(i, 0), x8.At(i, 0), d)
			}
		}

		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatalf("%v/%v complex: %v", opt.Algorithm, opt.Kernels, err)
		}
		zx8, err8 := zf.SolveLS(zb8)
		zx1, err1 := zf.SolveLS(zb1)
		if err8 != nil || err1 != nil {
			t.Fatalf("%v/%v complex: SolveLS: %v, %v", opt.Algorithm, opt.Kernels, err8, err1)
		}
		zscale := ZFrobeniusNorm(zx8)
		for i := 0; i < n; i++ {
			if d := cmplx.Abs(zx1.At(i, 0) - zx8.At(i, 0)); !(d <= tolSIMDLS*zscale) {
				t.Fatalf("%v/%v complex: x(%d) 1 RHS %v vs column 0 of 8 RHS %v (diff %g)",
					opt.Algorithm, opt.Kernels, i, zx1.At(i, 0), zx8.At(i, 0), d)
			}
		}
	}
}

func maxAbsDiff[T Scalar](a, b *Mat[T]) float64 {
	return tile.MaxAbsDiff((*tile.Dense[T])(a), (*tile.Dense[T])(b))
}

// TestApplyQRoundTripSingleColumn: Q·(Qᴴ·b) = b for one column, the vector
// form in both directions.
func TestApplyQRoundTripSingleColumn(t *testing.T) {
	const m, n = 130, 70
	a, b := RandomDense(m, n, 55), RandomDense(m, 1, 56)
	za, zb := RandomZDense(m, n, 57), RandomZDense(m, 1, 58)
	for _, opt := range narrowSolveOpts() {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatalf("%v/%v: %v", opt.Algorithm, opt.Kernels, err)
		}
		y := b.Clone()
		if err := f.ApplyQT(y); err != nil {
			t.Fatal(err)
		}
		if err := f.ApplyQ(y); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(y, b); d > tolSIMD64*FrobeniusNorm(b) {
			t.Errorf("%v/%v: ‖Q·Qᵀ·b − b‖∞ = %g", opt.Algorithm, opt.Kernels, d)
		}

		zf, err := FactorComplex(za, opt)
		if err != nil {
			t.Fatalf("%v/%v complex: %v", opt.Algorithm, opt.Kernels, err)
		}
		zy := zb.Clone()
		if err := zf.ApplyQH(zy); err != nil {
			t.Fatal(err)
		}
		if err := zf.ApplyQ(zy); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(zy, zb); d > tolSIMD64*ZFrobeniusNorm(zb) {
			t.Errorf("%v/%v complex: ‖Q·Qᴴ·b − b‖∞ = %g", opt.Algorithm, opt.Kernels, d)
		}
	}
}

// TestSolveLSOneRHSNotSlowerThanEight is the wall-clock sanity check of the
// narrow path at the paper's least-squares shape: solving for one
// right-hand side must not take longer than solving for eight. Min of 5,
// one retry, skipped under -short and the race detector like the other
// wall-clock assertion (TestAutoWithinEnvelope).
func TestSolveLSOneRHSNotSlowerThanEight(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock check skipped under the race detector")
	}
	f, err := Factor(RandomDense(solveLSM, solveLSN, 1), Options{TileSize: solveLSNB, InnerBlock: solveLSIB})
	if err != nil {
		t.Fatal(err)
	}
	minSolve := func(nrhs int) time.Duration {
		b := RandomDense(solveLSM, nrhs, 2)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := f.SolveLS(b); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	t1, t8 := minSolve(1), minSolve(8)
	if t1 > t8 { // one retry: absorb a scheduling hiccup, not a real miss
		t1, t8 = minSolve(1), minSolve(8)
	}
	t.Logf("SolveLS %d×%d: 1 RHS %.2f ms, 8 RHS %.2f ms", solveLSM, solveLSN,
		t1.Seconds()*1e3, t8.Seconds()*1e3)
	if t1 > t8 {
		t.Errorf("SolveLS with 1 RHS took %.2f ms, longer than with 8 (%.2f ms)", t1.Seconds()*1e3, t8.Seconds()*1e3)
	}
}
