package stream

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// harness drives a retaining Core and keeps, beside it, the plain list of
// rows (and weights) the stream should represent, so that every check is
// against a one-shot factorization of exactly the surviving rows.
type harness[T vec.Scalar] struct {
	t       *testing.T
	c       *Core[T]
	cfg     Config
	n, nrhs int
	tol     float64
	a, b    *tile.Dense[T] // the rows appends draw from, in order
	next    int
	live    []int     // pool rows represented, oldest first
	weight  []float64 // and the forgetting weight each carries
}

func newHarness[T vec.Scalar](t *testing.T, n, nrhs int, cfg Config, tol float64) *harness[T] {
	t.Helper()
	cfg.NB, cfg.IB, cfg.Env = 8, 4, engine.Env{Workers: 2}
	c, err := NewCore[T](n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness[T]{t: t, c: c, cfg: cfg, n: n, nrhs: nrhs, tol: tol,
		a: tile.RandDense[T](600, n, 41), b: tile.RandDense[T](600, max(nrhs, 1), 42)}
}

func (h *harness[T]) decay(lambda float64) {
	for i := range h.weight {
		h.weight[i] *= math.Sqrt(lambda)
	}
}

func (h *harness[T]) drop(k int) { h.live, h.weight = h.live[k:], h.weight[k:] }

func (h *harness[T]) append(r int) {
	h.t.Helper()
	var rhs []T
	ldr, nrhs := 0, 0
	if h.nrhs > 0 {
		rhs, ldr, nrhs = h.b.Data[h.next*h.b.Stride:], h.b.Stride, h.nrhs
	}
	if err := h.c.Append(nil, r, h.a.Data[h.next*h.n:], h.n, rhs, ldr, nrhs); err != nil {
		h.t.Fatal(err)
	}
	if h.cfg.Forget > 0 {
		h.decay(h.cfg.Forget)
	}
	for i := 0; i < r; i++ {
		h.live, h.weight = append(h.live, h.next+i), append(h.weight, 1)
	}
	h.next += r
	if w := h.cfg.Window; w > 0 && len(h.live) > w {
		h.drop(len(h.live) - w)
	}
}

func (h *harness[T]) downdate(k int) {
	h.t.Helper()
	if err := h.c.Downdate(k); err != nil {
		h.t.Fatal(err)
	}
	h.drop(k)
}

func (h *harness[T]) forget(lambda float64) {
	h.t.Helper()
	if err := h.c.Forget(lambda); err != nil {
		h.t.Fatal(err)
	}
	h.decay(lambda)
}

// check compares everything the stream serves with a one-shot
// factorization of the surviving weighted rows: R up to row signs, and when
// there are enough rows Qᵀb up to the same signs, the least-squares
// solution and its residual.
func (h *harness[T]) check(when string) {
	h.t.Helper()
	m, n := len(h.live), h.n
	if got := h.c.Rows(); got != int64(m) {
		h.t.Fatalf("%s: stream represents %d rows, want %d", when, got, m)
	}
	r := tile.NewDense[T](n, n)
	if err := h.c.CopyR(r.Data, r.Stride); err != nil {
		h.t.Fatal(err)
	}
	if m == 0 {
		for _, v := range r.Data {
			if v != 0 {
				h.t.Fatalf("%s: no rows represented, yet R is not zero", when)
			}
		}
		return
	}
	a, b := tile.NewDense[T](m, n), tile.NewDense[T](m, max(h.nrhs, 1))
	for i, src := range h.live {
		w := vec.FromParts[T](h.weight[i], 0)
		for j := 0; j < n; j++ {
			a.Set(i, j, w*h.a.At(src, j))
		}
		for j := 0; j < b.Cols; j++ {
			b.Set(i, j, w*h.b.At(src, j))
		}
	}
	f, err := engine.Factor(a, engine.Config{Algorithm: core.Greedy, Kernels: h.cfg.Kernels,
		TileSize: h.cfg.NB, InnerBlock: h.cfg.IB, Env: engine.Env{Workers: 1}})
	if err != nil {
		h.t.Fatal(err)
	}
	ref := f.R()
	var worst float64
	signs := make([]T, n)
	for i := 0; i < n; i++ {
		sign := vec.FromParts[T](1, 0)
		if i < ref.Rows && vec.RealPart(r.At(i, i))*vec.RealPart(ref.At(i, i)) < 0 {
			sign = vec.FromParts[T](-1, 0)
		}
		signs[i] = sign
		for j := i; j < n; j++ {
			var want T // rows past the m-th of a short window are zero
			if i < ref.Rows {
				want = ref.At(i, j)
			}
			worst = math.Max(worst, vec.Abs(sign*r.At(i, j)-want))
		}
	}
	if worst > h.tol {
		h.t.Errorf("%s: R differs from the one-shot factor of the %d surviving rows by %.3e (tol %.0e)", when, m, worst, h.tol)
	}
	if h.nrhs == 0 || m < n {
		return
	}
	qtb, qtbRef := tile.NewDense[T](n, h.nrhs), b.Clone()
	if err := h.c.CopyQTB(qtb.Data, qtb.Stride); err != nil {
		h.t.Fatal(err)
	}
	if err := f.Apply(nil, qtbRef, true); err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < h.nrhs; j++ {
			if d := vec.Abs(signs[i]*qtb.At(i, j) - qtbRef.At(i, j)); d > h.tol {
				h.t.Errorf("%s: Qᵀb differs from the one-shot factor's by %.3e (tol %.0e)", when, d, h.tol)
				return
			}
		}
	}
	x := tile.NewDense[T](n, h.nrhs)
	if err := h.c.SolveLS(x.Data, x.Stride); err != nil {
		h.t.Fatal(err)
	}
	xRef, err := f.SolveLS(nil, b)
	if err != nil {
		h.t.Fatal(err)
	}
	ax := tile.Mul(a, xRef)
	var direct float64
	for i := 0; i < m; i++ {
		for j := 0; j < h.nrhs; j++ {
			direct += vec.Abs2(ax.At(i, j) - b.At(i, j))
		}
	}
	direct = math.Sqrt(direct)
	for i := 0; i < n; i++ {
		for j := 0; j < h.nrhs; j++ {
			if d := vec.Abs(x.At(i, j) - xRef.At(i, j)); d > h.tol {
				h.t.Errorf("%s: LS solution differs from one-shot by %.3e (tol %.0e)", when, d, h.tol)
				return
			}
		}
	}
	resid, err := h.c.ResidualNorm()
	if err != nil {
		h.t.Fatal(err)
	}
	if math.Abs(resid-direct) > 10*h.tol*(1+direct) {
		h.t.Errorf("%s: residual %.6e, direct %.6e", when, resid, direct)
	}
}

// windowScenarios is the retention suite for one scalar domain and kernel
// family: every case ends (and most continue) with check.
func windowScenarios[T vec.Scalar](t *testing.T, kern core.Kernels, tol float64) {
	const n = 24
	t.Run("window not a multiple of the batch", func(t *testing.T) {
		h := newHarness[T](t, n, 2, Config{Kernels: kern, Window: 50}, tol)
		for i := 1; i <= 40; i++ {
			h.append(7)
			if i%6 == 0 {
				h.check(fmt.Sprintf("append %d", i))
			}
		}
		h.check("end")
	})
	t.Run("batch larger than the window", func(t *testing.T) {
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: 30}, tol)
		for _, r := range []int{33, 61, 4, 30, 31} {
			h.append(r)
			h.check(fmt.Sprintf("%d-row append", r))
		}
	})
	t.Run("one-row batches", func(t *testing.T) {
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: 100}, tol)
		for i := 1; i <= 330; i++ {
			h.append(1)
			if i%37 == 0 {
				h.check(fmt.Sprintf("append %d", i))
				// Checkpoints are at least n rows apart however small the
				// batches: only the oldest chunk is cut finer (by tile row).
				if limit := 100/n + (n+7)/8 + 1; len(h.c.stack) > limit {
					t.Fatalf("append %d: %d checkpoints over %d rows of front, want ≤ %d", i, len(h.c.stack), 100, limit)
				}
			}
		}
		if bound := 2*100*(n+1) + 12*n*n; h.c.Footprint() > bound {
			t.Errorf("footprint %d scalars for a 100-row window at n=%d, want ≤ %d", h.c.Footprint(), n, bound)
		}
	})
	t.Run("downdate anywhere", func(t *testing.T) {
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: RetainAll}, tol)
		for i := 0; i < 12; i++ {
			h.append(10)
		}
		h.check("filled")
		h.downdate(13) // flips; lands inside the second block
		h.check("inside a block")
		h.downdate(17) // the rest of the oldest three-block chunk, exactly
		if got := h.c.stack[len(h.c.stack)-1]; got.agg == nil {
			t.Fatal("a downdate ending on a chunk boundary dropped the next checkpoint")
		}
		h.check("on a checkpoint")
		h.append(10)
		h.append(10)
		h.check("appended behind a front")
		h.downdate(95) // the 90 rows left in front, a flip, and 5 rows more
		h.check("across a flip")
		h.downdate(15)
		h.check("emptied")
		h.append(9)
		h.append(30)
		h.check("refilled")
	})
	t.Run("no right-hand side", func(t *testing.T) {
		h := newHarness[T](t, n, 0, Config{Kernels: kern, Window: 45}, tol)
		for i := 1; i <= 20; i++ {
			h.append(11)
			if i%3 == 0 {
				h.check(fmt.Sprintf("append %d", i))
			}
		}
	})
	t.Run("forgetting in a window", func(t *testing.T) {
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: 60, Forget: 0.9}, tol)
		for i := 1; i <= 25; i++ {
			h.append(9)
			if i%4 == 0 {
				h.check(fmt.Sprintf("append %d", i))
				h.forget(0.5) // between a read and the next append: scales built checkpoints
				h.check(fmt.Sprintf("forget after append %d", i))
			}
		}
	})
	t.Run("weights underflowing to zero", func(t *testing.T) {
		// √λ per step bounds only one step: three Forget(1e-300) take every
		// retained weight to exactly 0. Those rows stay in the window and
		// must re-enter later merges as zero rows, not at full weight.
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: 60}, tol)
		for i := 0; i < 9; i++ {
			h.append(9)
		}
		for i := 0; i < 3; i++ {
			h.forget(1e-300)
		}
		if h.weight[0] != 0 {
			t.Fatalf("retained weight %g did not underflow to 0", h.weight[0])
		}
		for i := 1; i <= 6; i++ {
			h.append(9)
			if i >= 3 { // enough weighted rows for a full-rank solve
				h.check(fmt.Sprintf("append %d after the underflow", i))
			}
		}
	})
	t.Run("a read between every append", func(t *testing.T) {
		h := newHarness[T](t, n, 1, Config{Kernels: kern, Window: 40}, tol)
		for i := 1; i <= 30; i++ {
			h.append(5)
			h.check(fmt.Sprintf("append %d", i))
			h.check(fmt.Sprintf("append %d, cached", i))
		}
	})
}

// TestWindowMatchesOneShot runs the retention suite in all four precisions
// and both kernel families.
func TestWindowMatchesOneShot(t *testing.T) {
	for _, kern := range []core.Kernels{core.TT, core.TS} {
		t.Run("d/"+kern.String(), func(t *testing.T) { windowScenarios[float64](t, kern, 1e-10) })
		t.Run("z/"+kern.String(), func(t *testing.T) { windowScenarios[complex128](t, kern, 1e-10) })
		t.Run("s/"+kern.String(), func(t *testing.T) { windowScenarios[float32](t, kern, 2e-4) })
		t.Run("c/"+kern.String(), func(t *testing.T) { windowScenarios[complex64](t, kern, 2e-4) })
	}
}

// TestMerge is TSQR's combine step on its own: two Cores stream disjoint
// row sets A₁ and A₂, and merging the second's exported aggregate into the
// first must give what one Core that appended A₁ then A₂ holds — R and Qᵀb
// after the same row phase, and the residual. Reset must leave a Core that
// repeats the merge bit for bit, and a retaining Core must refuse to merge.
func TestMerge(t *testing.T) {
	t.Run("d", mergeCase[float64])
	t.Run("z", mergeCase[complex128])
}

func mergeCase[T vec.Scalar](t *testing.T) {
	const n, nrhs, m1, m2, tol = 40, 3, 70, 53, 1e-12
	a, b := tile.RandDense[T](m1+m2, n, 5), tile.RandDense[T](m1+m2, nrhs, 6)
	newCore := func(window int, from, to int) *Core[T] {
		c, err := NewCore[T](n, Config{NB: 16, IB: 4, Kernels: core.TT, Env: engine.Env{Workers: 2}, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append(nil, to-from, a.Data[from*n:], n, b.Data[from*nrhs:], nrhs, nrhs); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// export reads a Core's aggregate; with phase set, row i of R and of Qᵀb
	// is scaled so that R's diagonal is real and non-negative.
	export := func(c *Core[T], phase bool) (r, qtb *tile.Dense[T], resid float64) {
		r, qtb = tile.NewDense[T](n, n), tile.NewDense[T](n, nrhs)
		if err := c.CopyR(r.Data, n); err != nil {
			t.Fatal(err)
		}
		if err := c.CopyQTB(qtb.Data, nrhs); err != nil {
			t.Fatal(err)
		}
		resid, err := c.ResidualNorm()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; phase && i < n; i++ {
			d := r.At(i, i)
			p := vec.Conj(d) * vec.FromParts[T](1/vec.Abs(d), 0)
			for j := i; j < n; j++ {
				r.Set(i, j, r.At(i, j)*p)
			}
			for j := 0; j < nrhs; j++ {
				qtb.Set(i, j, qtb.At(i, j)*p)
			}
		}
		return r, qtb, resid
	}

	one := newCore(0, 0, m1)
	if err := one.Append(nil, m2, a.Data[m1*n:], n, b.Data[m1*nrhs:], nrhs, nrhs); err != nil {
		t.Fatal(err)
	}
	c1, c2 := newCore(0, 0, m1), newCore(0, m1, m1+m2)
	r2, q2, res2 := export(c2, false)
	merge := func(c *Core[T]) error {
		return c.Merge(nil, r2.Data, n, q2.Data, nrhs, res2, c2.Rows())
	}
	if err := merge(c1); err != nil {
		t.Fatal(err)
	}
	if c1.Rows() != m1+m2 {
		t.Fatalf("merged Core represents %d rows, want %d", c1.Rows(), m1+m2)
	}
	wantR, wantQ, wantRes := export(one, true)
	gotR, gotQ, gotRes := export(c1, true)
	scale := tile.FrobNorm(a)
	if d := tile.MaxAbsDiff(gotR, wantR); d > tol*scale {
		t.Errorf("merged R differs from A₁ then A₂ appended by %.3e (tol %.0e)", d, tol*scale)
	}
	if d := tile.MaxAbsDiff(gotQ, wantQ); d > tol*tile.FrobNorm(b) {
		t.Errorf("merged Qᵀb differs from A₁ then A₂ appended by %.3e", d)
	}
	if math.Abs(gotRes-wantRes) > tol*wantRes {
		t.Errorf("merged residual %.17g, appended %.17g", gotRes, wantRes)
	}

	first, _, _ := export(c1, false)
	c1.Reset()
	if r, _, res := export(c1, false); c1.Rows() != 0 || tile.FrobNorm(r) != 0 || res != 0 {
		t.Fatalf("Reset left %d rows, ‖R‖ = %g, residual %g", c1.Rows(), tile.FrobNorm(r), res)
	}
	if err := c1.Append(nil, m1, a.Data, n, b.Data, nrhs, nrhs); err != nil {
		t.Fatal(err)
	}
	if err := merge(c1); err != nil {
		t.Fatal(err)
	}
	if again, _, _ := export(c1, false); tile.MaxAbsDiff(again, first) != 0 {
		t.Error("a reset Core did not repeat the merge bit for bit")
	}

	w := newCore(RetainAll, 0, m1)
	if err := merge(w); err == nil || !strings.Contains(err.Error(), "retains its rows") {
		t.Fatalf("a retaining Core merged, or refused without saying why: %v", err)
	}
	// Reset drops the row history too: refilled with A₁ then A₂, a
	// downdate of m1 rows leaves A₂ alone.
	w.Reset()
	for _, set := range [][2]int{{0, m1}, {m1, m2}} { // first row, rows
		if err := w.Append(nil, set[1], a.Data[set[0]*n:], n, b.Data[set[0]*nrhs:], nrhs, nrhs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Downdate(m1); err != nil {
		t.Fatal(err)
	}
	gotR, _, _ = export(w, true)
	wantR, _, _ = export(c2, true)
	if w.Rows() != m2 || tile.MaxAbsDiff(gotR, wantR) > tol*scale {
		t.Errorf("a reset retaining Core holds %d rows, R off by %.3e", w.Rows(), tile.MaxAbsDiff(gotR, wantR))
	}
}

// TestWindowDrift slides a window a long way over graded rows (column j
// scaled by 10^(−8j/(n−1)), κ ≈ 10⁸) and asserts the Gram residual
// ‖RᵀR − AᵀA‖/‖AᵀA‖ of the last window is within 4× of the first full
// one's: every aggregate is rebuilt from rows still retained, so rounding
// error has nowhere to accumulate. A window maintained by subtracting
// evicted rows from one long-lived triangle cannot pass this.
func TestWindowDrift(t *testing.T) {
	const n, batch, window, pool = 32, 8, 128, 1024
	slides := 10000
	if testing.Short() {
		slides = 1000
	}
	a := tile.RandDense[float64](pool, n, 7)
	for i := 0; i < pool; i++ {
		for j := 0; j < n; j++ {
			a.Data[i*n+j] *= math.Pow(10, -8*float64(j)/(n-1))
		}
	}
	c, err := NewCore[float64](n, Config{NB: 16, IB: 8, Env: engine.Env{Workers: 1}, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	// gram reads R and compares RᵀR with AᵀA over the window's rows, the
	// last window/batch batches appended (pool rows, cyclically).
	r := tile.NewDense[float64](n, n)
	gram := func(appended int) float64 {
		if err := c.CopyR(r.Data, n); err != nil {
			t.Fatal(err)
		}
		var diff, norm float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var rtr, ata float64
				for k := 0; k <= min(i, j); k++ {
					rtr += r.Data[k*n+i] * r.Data[k*n+j]
				}
				for k := appended*batch - window; k < appended*batch; k++ {
					ata += a.Data[k%pool*n+i] * a.Data[k%pool*n+j]
				}
				diff += (rtr - ata) * (rtr - ata)
				norm += ata * ata
			}
		}
		return math.Sqrt(diff / norm)
	}
	var first float64
	for i := 1; i <= window/batch+slides; i++ {
		r0 := (i - 1) * batch % pool
		if err := c.Append(nil, batch, a.Data[r0*n:], n, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		switch {
		case i == window/batch:
			first = gram(i)
		case i%5 == 0: // reads build checkpoints; every 5th lands on all phases of the window
			if err := c.CopyR(r.Data, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	last := gram(window/batch + slides)
	const eps = 0x1p-52
	t.Logf("Gram residual: %.1f ε after the first full window, %.1f ε after %d slides", first/eps, last/eps, slides)
	if last > 4*math.Max(first, eps) {
		t.Errorf("Gram residual drifted from %.3e to %.3e over %d slides", first, last, slides)
	}
}
