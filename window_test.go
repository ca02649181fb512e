package tiledqr

import (
	"math"
	"strings"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// rowsOfG copies rows [r0, r0+k) of a into a fresh matrix — the generic
// form of rowsOf for the windowing tests, which run all four precisions
// through one body.
func rowsOfG[T Scalar](a *Mat[T], r0, k int) *Mat[T] {
	out := NewMat[T](k, a.Cols)
	for i := 0; i < k; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(i, j, a.At(r0+i, j))
		}
	}
	return out
}

// maxUpperDiffG compares two upper triangular factors up to the per-row ±1
// sign ambiguity of a QR factorization (the reflector construction keeps
// the diagonal real in the complex domains too).
func maxUpperDiffG[T Scalar](got, want *Mat[T], n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		sign := vec.FromParts[T](1, 0)
		if vec.RealPart(got.At(i, i))*vec.RealPart(want.At(i, i)) < 0 {
			sign = vec.FromParts[T](-1, 0)
		}
		for j := i; j < n; j++ {
			worst = math.Max(worst, vec.Abs(sign*got.At(i, j)-want.At(i, j)))
		}
	}
	return worst
}

// maxDiffG is the entrywise distance between two equally-shaped matrices.
func maxDiffG[T Scalar](got, want *Mat[T]) float64 {
	var worst float64
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			worst = math.Max(worst, vec.Abs(got.At(i, j)-want.At(i, j)))
		}
	}
	return worst
}

// oneShot is a per-precision one-shot reference: factor a, return R and
// the least-squares solution against b.
type oneShot[T Scalar] func(a, b *Mat[T], opt Options) (*Mat[T], *Mat[T], error)

func factorD(a, b *Mat[float64], opt Options) (*Mat[float64], *Mat[float64], error) {
	f, err := Factor(a, opt)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveLS(b)
	if err != nil {
		return nil, nil, err
	}
	return f.R(), x, nil
}

func factorZ(a, b *Mat[complex128], opt Options) (*Mat[complex128], *Mat[complex128], error) {
	f, err := FactorComplex(a, opt)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveLS(b)
	if err != nil {
		return nil, nil, err
	}
	return f.R(), x, nil
}

func factorS(a, b *Mat[float32], opt Options) (*Mat[float32], *Mat[float32], error) {
	f, err := Factor32(a, opt)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveLS(b)
	if err != nil {
		return nil, nil, err
	}
	return f.R(), x, nil
}

func factorC(a, b *Mat[complex64], opt Options) (*Mat[complex64], *Mat[complex64], error) {
	f, err := CFactor(a, opt)
	if err != nil {
		return nil, nil, err
	}
	x, err := f.SolveLS(b)
	if err != nil {
		return nil, nil, err
	}
	return f.R(), x, nil
}

// downdateAgree drives a sliding-window stream far past its window and
// checks that what remains is exactly the QR of the retained rows: R, the
// least-squares solution, and the residual all agree with a one-shot
// factorization over only the last W rows.
func downdateAgree[T Scalar](t *testing.T, kern Kernels, tol float64, factor oneShot[T]) {
	t.Helper()
	const n, nb, ib, nrhs, batch, batches, window = 40, 16, 8, 2, 16, 10, 64
	const m = batch * batches
	a := RandomMat[T](m, n, 11)
	b := RandomMat[T](m, nrhs, 12)
	opt := Options{TileSize: nb, InnerBlock: ib, Kernels: kern, Workers: 2, WindowRows: window}
	s, err := NewStreamOf[T](n, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < m; r0 += batch {
		if err := s.AppendRHS(rowsOfG(a, r0, batch), rowsOfG(b, r0, batch)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rows() != window {
		t.Fatalf("windowed stream represents %d rows, want %d", s.Rows(), window)
	}

	aTail, bTail := rowsOfG(a, m-window, window), rowsOfG(b, m-window, window)
	refOpt := Options{TileSize: nb, InnerBlock: ib, Kernels: kern, Workers: 2}
	rRef, xRef, err := factor(aTail, bTail, refOpt)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxUpperDiffG(rs, rRef, n); d > tol {
		t.Errorf("%v: windowed R differs from one-shot over retained rows by %.3e (tol %.0e)", kern, d, tol)
	}
	x, err := s.SolveLS()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiffG(x, xRef); d > tol {
		t.Errorf("%v: windowed LS solution differs by %.3e (tol %.0e)", kern, d, tol)
	}

	// The residual bookkeeping survives downdating: compare against the
	// directly computed ‖A_tail·x − b_tail‖_F. It is summed up the
	// reduction tree, never derived by subtraction, so nothing cancels.
	resid, err := s.ResidualNorm()
	if err != nil {
		t.Fatal(err)
	}
	ax := tile.Mul((*tile.Dense[T])(aTail), (*tile.Dense[T])(x))
	var direct float64
	for i := 0; i < window; i++ {
		for j := 0; j < nrhs; j++ {
			direct += vec.Abs2(ax.At(i, j) - bTail.At(i, j))
		}
	}
	direct = math.Sqrt(direct)
	if math.Abs(resid-direct) > 10*tol*(1+direct) {
		t.Errorf("%v: residual %.6e, direct %.6e", kern, resid, direct)
	}
}

// TestDowndateMatchesRecompute is the downdate agreement suite of the
// sliding-window feature: all four precisions × both kernel families.
func TestDowndateMatchesRecompute(t *testing.T) {
	for _, kern := range []Kernels{TT, TS} {
		kern := kern
		t.Run("d/"+kern.String(), func(t *testing.T) { downdateAgree[float64](t, kern, 1e-10, factorD) })
		t.Run("z/"+kern.String(), func(t *testing.T) { downdateAgree[complex128](t, kern, 1e-10, factorZ) })
		t.Run("s/"+kern.String(), func(t *testing.T) { downdateAgree[float32](t, kern, 2e-4, factorS) })
		t.Run("c/"+kern.String(), func(t *testing.T) { downdateAgree[complex64](t, kern, 2e-4, factorC) })
	}
}

// TestDowndateBelowRank removes so many rows that fewer than n remain, so
// the represented triangle becomes rank-deficient — a state no subtraction
// from the old triangle reaches stably, and an ordinary one for a window
// that re-merges what survives: the result must match a fresh stream fed
// only the surviving rows, split exactly as the history retains them.
func TestDowndateBelowRank(t *testing.T) {
	const n, nb, ib, nrhs, batch = 32, 16, 8, 1, 16
	const m = 4 * batch // 64 ingested
	const remove = 41   // leaves 23 < n rows
	a := RandomDense(m, n, 21)
	b := RandomDense(m, nrhs, 22)
	opt := Options{TileSize: nb, InnerBlock: ib, Workers: 2, WindowRows: RetainAll}
	s, err := NewStream(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < m; r0 += batch {
		if err := s.AppendRHS(rowsOfG(a, r0, batch), rowsOfG(b, r0, batch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DowndateRows(remove); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != m-remove {
		t.Fatalf("after downdate stream represents %d rows, want %d", s.Rows(), m-remove)
	}

	// The history retains [7-row tail of batch 3, batch 4] after dropping
	// 41 = 2·16 + 9 rows; a fresh stream is fed the same two batches.
	ref, err := NewStream(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendRHS(rowsOfG(a, remove, m-remove-batch), rowsOfG(b, remove, m-remove-batch)); err != nil {
		t.Fatal(err)
	}
	if err := ref.AppendRHS(rowsOfG(a, m-batch, batch), rowsOfG(b, m-batch, batch)); err != nil {
		t.Fatal(err)
	}
	rs, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	rRef, err := ref.R()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxUpperDiffG(rs, rRef, n); d > 1e-10 {
		t.Errorf("R after downdate differs from fresh stream by %.3e", d)
	}
	qs, err := s.QTB()
	if err != nil {
		t.Fatal(err)
	}
	qRef, err := ref.QTB()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ { // a row of Qᵀb carries the sign of its row of R
		if rs.At(i, i)*rRef.At(i, i) < 0 {
			qs.Set(i, 0, -qs.At(i, 0))
		}
	}
	if d := maxDiffG(qs, qRef); d > 1e-10 {
		t.Errorf("QTB after downdate differs from fresh stream by %.3e", d)
	}
}

// TestForgettingClosedForm checks Options.Forget against its closed form:
// after B appends with factor λ, batch i's rows carry weight λ^((B−1−i)/2),
// so the stream must agree with a one-shot factorization of the explicitly
// weighted rows. It also checks the manual Forget method is exactly the
// per-append decay.
func TestForgettingClosedForm(t *testing.T) {
	const n, nb, ib, nrhs, batch, batches = 24, 16, 8, 1, 16, 6
	const m = batch * batches
	const lambda = 0.8
	a := RandomDense(m, n, 31)
	b := RandomDense(m, nrhs, 32)
	opt := Options{TileSize: nb, InnerBlock: ib, Workers: 2}

	fopt := opt
	fopt.Forget = lambda
	s, err := NewStream(n, fopt)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := NewStream(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < m; r0 += batch {
		if err := s.AppendRHS(rowsOfG(a, r0, batch), rowsOfG(b, r0, batch)); err != nil {
			t.Fatal(err)
		}
		if err := manual.Forget(lambda); err != nil {
			t.Fatal(err)
		}
		if err := manual.AppendRHS(rowsOfG(a, r0, batch), rowsOfG(b, r0, batch)); err != nil {
			t.Fatal(err)
		}
	}

	// Closed form: weight batch i by λ^((B−1−i)/2) — the √λ decay applied
	// once per later append — and factor the weighted rows in one shot.
	aw, bw := a.Clone(), b.Clone()
	for i := 0; i < m; i++ {
		w := math.Pow(lambda, float64(batches-1-i/batch)/2)
		for j := 0; j < n; j++ {
			aw.Set(i, j, w*aw.At(i, j))
		}
		for j := 0; j < nrhs; j++ {
			bw.Set(i, j, w*bw.At(i, j))
		}
	}
	f, err := Factor(aw, opt)
	if err != nil {
		t.Fatal(err)
	}
	xRef, err := f.SolveLS(bw)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxUpperDiffG(rs, f.R(), n); d > 1e-10 {
		t.Errorf("forgetful R differs from weighted one-shot by %.3e", d)
	}
	x, err := s.SolveLS()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiffG(x, xRef); d > 1e-10 {
		t.Errorf("forgetful LS solution differs from weighted one-shot by %.3e", d)
	}

	// Options.Forget ≡ Forget() before every append, operation for
	// operation — the two streams must agree to the last bit.
	rManual, err := manual.R()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiffG(rs, rManual); d != 0 {
		t.Errorf("Options.Forget and manual Forget diverge by %.3e", d)
	}
}

// TestWindowFootprintFlat is the memory acceptance test of the sliding
// window: a windowed stream's footprint stays flat (within 10%) from batch
// 10 to batch 100, while a retain-everything stream's grows with history.
func TestWindowFootprintFlat(t *testing.T) {
	const n, nb, ib, batch, window = 64, 32, 8, 32, 128
	opt := Options{TileSize: nb, InnerBlock: ib, Workers: 1}
	wopt := opt
	wopt.WindowRows = window
	windowed, err := NewStream(n, wopt)
	if err != nil {
		t.Fatal(err)
	}
	gopt := opt
	gopt.WindowRows = RetainAll
	growing, err := NewStream(n, gopt)
	if err != nil {
		t.Fatal(err)
	}
	var w10, g10 int
	for i := 1; i <= 100; i++ {
		batchM := RandomDense(batch, n, int64(i))
		if err := windowed.AppendRows(batchM); err != nil {
			t.Fatal(err)
		}
		if err := growing.AppendRows(batchM); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			w10, g10 = windowed.Footprint(), growing.Footprint()
		}
	}
	w100, g100 := windowed.Footprint(), growing.Footprint()
	if float64(w100) > 1.1*float64(w10) || float64(w100) < 0.9*float64(w10) {
		t.Errorf("windowed footprint not flat: %d scalars after batch 10, %d after batch 100", w10, w100)
	}
	if g100 <= 2*g10 {
		t.Errorf("retain-all footprint should grow with history: %d after batch 10, %d after batch 100", g10, g100)
	}
	if windowed.Rows() != window {
		t.Errorf("windowed stream represents %d rows, want %d", windowed.Rows(), window)
	}
}

// TestStreamOptionValidation covers the descriptive errors of the new
// Options knobs: bad stream values are rejected at construction, and
// one-shot factorizations reject the stream-only fields outright.
func TestStreamOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  Options
		want string
	}{
		{"forget above one", Options{Forget: 1.5}, "Forget"},
		{"forget negative", Options{Forget: -0.1}, "Forget"},
		{"window negative", Options{WindowRows: -2}, "WindowRows"},
	}
	for _, tc := range bad {
		if _, err := NewStream(16, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewStream err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	a := RandomDense(32, 16, 1)
	if _, err := Factor(a, Options{WindowRows: 8}); err == nil || !strings.Contains(err.Error(), "streams") {
		t.Errorf("Factor with WindowRows: err = %v, want stream-only rejection", err)
	}
	if _, err := Factor(a, Options{Forget: 0.5}); err == nil || !strings.Contains(err.Error(), "streams") {
		t.Errorf("Factor with Forget: err = %v, want stream-only rejection", err)
	}
}

// TestDowndateErrors covers DowndateRows/Forget misuse: each call must
// fail descriptively and leave the stream fully usable.
func TestDowndateErrors(t *testing.T) {
	plain, err := NewStream(16, Options{TileSize: 16, InnerBlock: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AppendRows(RandomDense(8, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if err := plain.DowndateRows(4); err == nil || !strings.Contains(err.Error(), "WindowRows") {
		t.Errorf("downdate without retention: err = %v, want WindowRows hint", err)
	}

	s, err := NewStream(16, Options{TileSize: 16, InnerBlock: 8, Workers: 1, WindowRows: RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows(RandomDense(8, 16, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.DowndateRows(0); err == nil {
		t.Error("DowndateRows(0) should fail")
	}
	if err := s.DowndateRows(9); err == nil {
		t.Error("DowndateRows beyond represented rows should fail")
	}
	if err := s.Forget(0); err == nil {
		t.Error("Forget(0) should fail")
	}
	if err := s.Forget(1.5); err == nil {
		t.Error("Forget(1.5) should fail")
	}
	if err := s.Forget(1); err != nil {
		t.Errorf("Forget(1) is a no-op, got %v", err)
	}
	// The misuse above must not have poisoned anything.
	if err := s.AppendRows(RandomDense(8, 16, 3)); err != nil {
		t.Errorf("stream unusable after rejected calls: %v", err)
	}
	if err := s.DowndateRows(8); err != nil {
		t.Errorf("valid downdate failed: %v", err)
	}
	if s.Rows() != 8 {
		t.Errorf("rows = %d, want 8", s.Rows())
	}
}
