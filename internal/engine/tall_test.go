package engine

import (
	"fmt"
	"math"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Conformance of tall grids: below the top q tile rows, tile.FactorGrid
// cuts the rows of a tall matrix into tiles MB = c·NB rows tall. These
// cases pick c = 1, 2 and 4 by their shapes alone (nb = 6 over three tile
// columns, the last 2 wide), and each ends in a ragged tile row.
const tallNB, tallIB = 6, 3

var tallCases = []struct {
	name  string
	m, n  int
	mb    int     // the row height FactorGrid gives the rows below the top q
	bound float64 // c of the c·ε·m bound every check is held to
}{
	{"MB=NB", 6*20 + 5, 14, 6, 16},
	{"MB=2NB", 6*39 + 4, 14, 12, 16},
	{"MB=4NB", 6*65 + 1, 14, 24, 16},
}

// tallAlgorithms is every parameter-free tree, plus the parametrized ones;
// PlasmaTree's and HadriTree's BS count the tile rows as run.
var tallAlgorithms = []struct {
	alg  core.Algorithm
	opts core.Options
}{
	{core.FlatTree, core.Options{}},
	{core.BinaryTree, core.Options{}},
	{core.Fibonacci, core.Options{}},
	{core.Greedy, core.Options{}},
	{core.Asap, core.Options{}},
	{core.PlasmaTree, core.Options{BS: 3}},
	{core.HadriTree, core.Options{BS: 4}},
	{core.Grasap, core.Options{GrasapK: 2}},
}

func TestTallGridConformance(t *testing.T) {
	t.Run("float64", tallConformance[float64])
	t.Run("complex128", tallConformance[complex128])
	t.Run("float32", tallConformance[float32])
	t.Run("complex64", tallConformance[complex64])
}

// epsOf is the unit roundoff of T's real type.
func epsOf[T vec.Scalar]() float64 {
	switch any(*new(T)).(type) {
	case float32, complex64:
		return 0x1p-24
	}
	return 0x1p-53
}

// tallConformance holds every tall-grid factorization to ‖A − QR‖/‖A‖ and
// ‖I − QᴴQ‖, and its SolveLS, ApplyQH/ApplyQ and ThinQ to those of the
// square-grid factorization of the same matrix at the same nb
// (serialFactor on tile.NewGrid). The two
// run different reflectors, so Q's columns and Qᴴb's rows agree up to the
// signs of R's (real) diagonal, and Qᴴb below row n only in norm. Workers:
// 1 and a 2-worker runtime must give bit-identical R.
func tallConformance[T vec.Scalar](t *testing.T) {
	for _, tc := range tallCases {
		a := tile.RandDense[T](tc.m, tc.n, int64(tc.m))
		b := tile.RandDense[T](tc.m, 2, int64(tc.m)+1)
		bound := tc.bound * epsOf[T]() * float64(tc.m)
		for _, al := range tallAlgorithms {
			for _, fam := range []core.Kernels{core.TT, core.TS} {
				name := fmt.Sprintf("%s %v/%v", tc.name, al.alg, fam)
				cfg := Config{Algorithm: al.alg, Kernels: fam, CoreOpts: al.opts,
					TileSize: tallNB, InnerBlock: tallIB, Env: Env{Workers: 1}}
				f, err := Factor(a, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				g := f.grid
				if g.MB != tc.mb || g.TileRows(g.P-1) == g.TileRows(g.P-2) {
					t.Fatalf("%s: grid %+v, want rows %d tall below the top %d and a ragged last one", name, g, tc.mb, g.Q)
				}
				if want := kernel.TileWorkLen(g.MB, g.NB, tallIB); f.wsLen != want {
					t.Fatalf("%s: workers get %d scalars of scratch, the GEMM heads of %d-row tiles need %d", name, f.wsLen, g.MB, want)
				}
				ref := serialFactor(t, a, cfg, tile.NewGrid(tc.m, tc.n, tallNB))
				if tc.mb > tallNB && f.TaskCount() >= ref.TaskCount() {
					t.Errorf("%s: %d tasks on the tall grid, %d on the square one", name, f.TaskCount(), ref.TaskCount())
				}
				if msg := tallChecks(f, ref, a, b, bound); msg != "" {
					t.Errorf("%s: %s", name, msg)
				}
				cfg.Env = Env{Workers: 2}
				par, err := Factor(a, cfg)
				if err != nil {
					t.Fatalf("%s on 2 workers: %v", name, err)
				}
				if !sameBits(f.R(), par.R()) {
					t.Errorf("%s: R differs between Workers: 1 and a 2-worker runtime", name)
				}
			}
		}
	}
}

// tallChecks returns what of f fails its bound, alone or against ref.
func tallChecks[T vec.Scalar](f, ref *Factorization[T], a, b *tile.Dense[T], bound float64) string {
	m, n := f.grid.M, f.grid.N
	q, r := f.ThinQ(), f.R()
	if res := tile.ResidualQR(a, q, r); res > bound {
		return fmt.Sprintf("‖A − QR‖/‖A‖ = %.3g > %.3g", res, bound)
	}
	if res := tile.OrthoResidual(q); res > bound {
		return fmt.Sprintf("‖I − QᴴQ‖ = %.3g > %.3g", res, bound)
	}
	// sign[j] aligns row j of R (column j of Q) with the reference's.
	rRef, sign := ref.R(), make([]T, n)
	for j := range sign {
		sign[j] = 1
		if vec.RealPart(r.At(j, j))*vec.RealPart(rRef.At(j, j)) < 0 {
			sign[j] = -1
		}
	}
	qRef := ref.ThinQ()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			q.Set(i, j, sign[j]*q.At(i, j))
		}
	}
	if d := tile.MaxAbsDiff(q, qRef); d > bound {
		return fmt.Sprintf("ThinQ differs from the square grid's by %.3g > %.3g", d, bound)
	}
	x, err := f.SolveLS(nil, b)
	if err != nil {
		return err.Error()
	}
	xRef, err := ref.SolveLS(nil, b)
	if err != nil {
		return err.Error()
	}
	if d := tile.MaxAbsDiff(x, xRef) / maxAbs(xRef); d > bound {
		return fmt.Sprintf("SolveLS differs from the square grid's by %.3g (relative) > %.3g", d, bound)
	}
	qhb, qhbRef := b.Clone(), b.Clone()
	if err := f.Apply(nil, qhb, true); err != nil {
		return err.Error()
	}
	if err := ref.Apply(nil, qhbRef, true); err != nil {
		return err.Error()
	}
	normB := tile.FrobNorm(b)
	for i := 0; i < n; i++ {
		for j := 0; j < b.Cols; j++ {
			if d := vec.Abs(sign[i]*qhb.At(i, j) - qhbRef.At(i, j)); d > bound*normB {
				return fmt.Sprintf("ApplyQH row %d differs from the square grid's by %.3g > %.3g", i, d, bound*normB)
			}
		}
	}
	rest, restRef := tile.FrobNorm(qhb.View(n, 0, m-n, b.Cols)), tile.FrobNorm(qhbRef.View(n, 0, m-n, b.Cols))
	if d := math.Abs(rest - restRef); d > bound*normB {
		return fmt.Sprintf("ApplyQH's residual rows have norm %.6g, the square grid's %.6g", rest, restRef)
	}
	if err := f.Apply(nil, qhb, false); err != nil {
		return err.Error()
	}
	if d := tile.MaxAbsDiff(qhb, b); d > bound*normB {
		return fmt.Sprintf("ApplyQ(ApplyQH(b)) differs from b by %.3g > %.3g", d, bound*normB)
	}
	return ""
}

// maxAbs returns the largest modulus in a.
func maxAbs[T vec.Scalar](a *tile.Dense[T]) float64 {
	var m float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			m = max(m, vec.Abs(a.At(i, j)))
		}
	}
	return m
}
