package kernel

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Conformance of the column-contiguous panel factorizations (geqrt2,
// tpqrt2) behind GEQRT and TPQRT: one generic body per kernel, run for all
// four precisions under every vec family, over shapes that put the panel
// columns on both sides of the SIMD dispatch length, leave ragged last
// panels, and walk every pentagonal staircase. Each case checks the
// factorization against ε-scaled bounds, the T factor against a reference
// larft build from the stored reflectors, and the memory discipline of the
// gather/scatter: the tile is a strided view whose surroundings must not
// change, the workspace and T arrive filled with NaN, and everything the
// kernels are documented not to reference (A's strict lower triangle under
// TPQRT, B below its trapezoid) holds NaN as well. The Q appliers are held
// to a reflector-by-reflector reference across their form switches
// (conformApplies).

// epsOf is the unit roundoff of T's real type.
func epsOf[T vec.Scalar]() float64 {
	switch any(*new(T)).(type) {
	case float32, complex64:
		return 0x1p-24
	}
	return 0x1p-53
}

// panelBound is the c·ε·n bound of the conformance checks; dim is the
// longest dimension of the factored (stacked) matrix.
func panelBound[T vec.Scalar](dim int) float64 { return 16 * epsOf[T]() * float64(dim) }

func nanOf[T vec.Scalar]() T { return vec.FromParts[T](math.NaN(), math.NaN()) }

func isNaN[T vec.Scalar](v T) bool {
	return math.IsNaN(vec.RealPart(v)) || math.IsNaN(vec.ImagPart(v))
}

func nanSlice[T vec.Scalar](n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = nanOf[T]()
	}
	return s
}

const padValue = 7.5

// padded copies src into a view with row stride src.Cols+5, offset inside a
// backing array filled with padValue; checkPad then requires the backing
// array to be untouched outside the view.
func padded[T vec.Scalar](src *tile.Dense[T]) (back, view *tile.Dense[T]) {
	back = tile.NewDense[T](src.Rows+2, src.Cols+5)
	for i := range back.Data {
		back.Data[i] = vec.FromParts[T](padValue, 0)
	}
	view = back.View(1, 2, src.Rows, src.Cols)
	for i := 0; i < src.Rows; i++ {
		copy(view.Data[i*view.Stride:i*view.Stride+src.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
	return back, view
}

func checkPad[T vec.Scalar](t *testing.T, what string, back *tile.Dense[T], rows, cols int) {
	t.Helper()
	for i := 0; i < back.Rows; i++ {
		for j := 0; j < back.Cols; j++ {
			inside := i >= 1 && i < 1+rows && j >= 2 && j < 2+cols
			if !inside && back.At(i, j) != vec.FromParts[T](padValue, 0) {
				t.Fatalf("%s: wrote outside its tile at backing (%d,%d)", what, i, j)
			}
		}
	}
}

func c128[T vec.Scalar](v T) complex128 { return complex(vec.RealPart(v), vec.ImagPart(v)) }

// checkTFactor rebuilds every panel's triangular factor column by column,
// larft style, in complex128 — T(0:jj, jj) = −τ·T(0:jj, 0:jj)·z with
// z[c] = v_cᴴ·v_jj supplied by vhv from the stored reflectors and τ read
// off T's diagonal — and compares it with what the kernel stored in t
// (ib rows, stride n).
func checkTFactor[T vec.Scalar](t *testing.T, what string, k, n, ib, rows int, tf []T,
	vhv func(c, j int) complex128) {
	t.Helper()
	bound := panelBound[T](rows)
	for k0 := 0; k0 < k; k0 += ib {
		kb := min(ib, k-k0)
		ref, z := make([]complex128, kb*kb), make([]complex128, kb)
		for jj := 0; jj < kb; jj++ {
			tau := c128(tf[jj*n+k0+jj])
			ref[jj*kb+jj] = tau
			for c := 0; c < jj; c++ {
				z[c] = vhv(k0+c, k0+jj)
			}
			for r := 0; r < jj; r++ {
				var s complex128
				for c := r; c < jj; c++ {
					s += ref[r*kb+c] * z[c]
				}
				ref[r*kb+jj] = -tau * s
				got := c128(tf[r*n+k0+jj])
				if d := got - ref[r*kb+jj]; !(math.Hypot(real(d), imag(d)) <= bound) {
					t.Fatalf("%s: T(%d,%d) of panel %d = %v, reference larft %v (bound %g)",
						what, r, jj, k0/ib, got, ref[r*kb+jj], bound)
				}
			}
		}
	}
}

// checkQR requires ‖A − Q·R‖/‖A‖ and ‖I − QᴴQ‖ within the panel bound; the
// comparisons are written so that a NaN anywhere fails them.
func checkQR[T vec.Scalar](t *testing.T, what string, a0, q, r *tile.Dense[T]) {
	t.Helper()
	bound := panelBound[T](max(a0.Rows, a0.Cols))
	if res := tile.ResidualQR(a0, q, r); !(res <= bound) {
		t.Fatalf("%s: ‖A−QR‖/‖A‖ = %g > %g", what, res, bound)
	}
	if ortho := tile.OrthoResidual(q); !(ortho <= bound) {
		t.Fatalf("%s: ‖I−QᴴQ‖ = %g > %g", what, ortho, bound)
	}
}

// checkZeroTColumn requires column zc of T (rows 0 through its own diagonal
// entry within its panel) to be exactly zero: τ = 0 and H = I.
func checkZeroTColumn[T vec.Scalar](t *testing.T, what string, tf []T, n, ib, zc int) {
	t.Helper()
	for r := 0; r <= zc%ib; r++ {
		if tf[r*n+zc] != 0 {
			t.Fatalf("%s: zero column %d has T(%d,·) = %v, want 0", what, zc, r, tf[r*n+zc])
		}
	}
}

// conformGEQRT factors an m×n tile whose column n/2 is exactly zero.
func conformGEQRT[T vec.Scalar](t *testing.T, m, n, ib int) {
	t.Helper()
	what := fmt.Sprintf("GEQRT %dx%d ib=%d", m, n, ib)
	k, zc := min(m, n), n/2
	a0 := tile.RandDense[T](m, n, int64(31*m+n))
	for i := 0; i < m; i++ {
		a0.Set(i, zc, 0)
	}
	back, a := padded(a0)
	ibc := clampIB(ib, k)
	tf := nanSlice[T](ibc * n)
	GEQRT(m, n, ib, a.Data, a.Stride, tf, n, nanSlice[T](WorkLen(n, ibc)))
	checkPad(t, what, back, m, n)

	q := tile.NewDense[T](m, k) // Q's first k columns
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	UNMQR(false, m, k, ib, a.Data, a.Stride, tf, n, q.Data, q.Stride, k, nil)
	checkQR(t, what, a0, q, upperTriOf(a.View(0, 0, k, n)))
	checkTFactor(t, what, k, n, ibc, m, tf, func(c, j int) complex128 {
		s := cmplx.Conj(c128(a.At(j, c))) // v_c[j]·(v_j[j] = 1)
		for i := j + 1; i < m; i++ {
			s += cmplx.Conj(c128(a.At(i, c))) * c128(a.At(i, j))
		}
		return s
	})
	if zc < k {
		// A zero column stays zero under the earlier reflectors, so its
		// own reflector is the identity: τ = 0, a zero T column, and
		// nothing written into the tile.
		checkZeroTColumn(t, what, tf, n, ibc, zc)
		for i := 0; i < m; i++ {
			if a.At(i, zc) != 0 {
				t.Fatalf("%s: zero column %d became %v at row %d", what, zc, a.At(i, zc), i)
			}
		}
	}
}

// conformTPQRT factors [A; B] with A n×n upper triangular and B m×n
// pentagonal of trapezoid height l, column n/2 of the stack exactly zero,
// and NaN in everything outside the two structures.
func conformTPQRT[T vec.Scalar](t *testing.T, m, n, l, ib int) {
	t.Helper()
	what := fmt.Sprintf("TPQRT m=%d n=%d l=%d ib=%d", m, n, l, ib)
	zc := n / 2
	a0 := randUpperTri[T](n, int64(17*m+n))
	b0 := randPent[T](m, n, l, int64(13*m+n+l))
	for i := 0; i < n; i++ {
		a0.Set(i, zc, 0)
	}
	for i := 0; i < m; i++ {
		b0.Set(i, zc, 0)
	}
	aIn, bIn := a0.Clone(), b0.Clone()
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			aIn.Set(i, j, nanOf[T]())
		}
		for i := pentRows(m, l, j); i < m; i++ {
			bIn.Set(i, j, nanOf[T]())
		}
	}
	backA, a := padded(aIn)
	backB, b := padded(bIn)
	ibc := clampIB(ib, n)
	tf := nanSlice[T](ibc * n)
	TPQRT(m, n, l, ib, a.Data, a.Stride, b.Data, b.Stride, tf, n, nanSlice[T](WorkLen(n, ibc)))
	checkPad(t, what, backA, n, n)
	checkPad(t, what, backB, m, n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if !isNaN(a.At(i, j)) {
				t.Fatalf("%s: wrote A(%d,%d) below the diagonal", what, i, j)
			}
		}
		for i := pentRows(m, l, j); i < m; i++ {
			if !isNaN(b.At(i, j)) {
				t.Fatalf("%s: wrote B(%d,%d) below the trapezoid", what, i, j)
			}
		}
	}

	// Q's first n columns: Q·[I; 0].
	q1, q2 := tile.Identity[T](n), tile.NewDense[T](m, n)
	TPMQRT(false, m, n, l, ib, b.Data, b.Stride, tf, n, q1.Data, q1.Stride, q2.Data, q2.Stride, n, nil)
	stack := func(top, bot *tile.Dense[T]) *tile.Dense[T] {
		s := tile.NewDense[T](n+m, n)
		copy(s.Data, top.Data)
		copy(s.Data[n*n:], bot.Data)
		return s
	}
	checkQR(t, what, stack(a0, b0), stack(q1, q2), upperTriOf(a.View(0, 0, n, n)))
	checkTFactor(t, what, n, n, ibc, n+m, tf, func(c, j int) complex128 {
		var s complex128
		for i := 0; i < pentRows(m, l, c); i++ {
			s += cmplx.Conj(c128(b.At(i, c))) * c128(b.At(i, j))
		}
		return s
	})
	checkZeroTColumn(t, what, tf, n, ibc, zc)
	for i := 0; i < pentRows(m, l, zc); i++ {
		if b.At(i, zc) != 0 {
			t.Fatalf("%s: zero column %d of B became %v at row %d", what, zc, b.At(i, zc), i)
		}
	}
}

func conformPanels[T vec.Scalar](t *testing.T) {
	for _, n := range []int{6, 17, 64, 128} {
		for _, ib := range []int{1, 3, 8, 32, n + 5} {
			if n == 128 && ib < 8 && testing.Short() {
				continue
			}
			tall, short := n+n/4+1, n-n/3
			for _, m := range []int{tall, n, short} {
				conformGEQRT[T](t, m, n, ib)
			}
			for _, m := range []int{tall, short} {
				for _, l := range []int{0, 1, n / 2, min(m, n)} {
					conformTPQRT[T](t, m, n, min(l, m), ib)
				}
			}
		}
	}
}

// refApply applies Qᴴ (trans) or Q = H₀·H₁···H_{k−1} to the rows×nc
// complex128 matrix c, one reflector H_j = I − τ_j·v_j·v_jᴴ at a time from
// the stored vectors (vecOf) and the τ on T's diagonal: a reference that
// shares nothing with the kernels' blocking, T off-diagonals or GEMM paths.
func refApply(trans bool, k, nc int, vecOf func(j int) []complex128, tau func(j int) complex128, c []complex128) {
	for s := 0; s < k; s++ {
		j, tj := k-1-s, tau(k-1-s)
		if trans {
			j, tj = s, cmplx.Conj(tau(s))
		}
		v := vecOf(j)
		for y := 0; y < nc; y++ {
			var w complex128
			for i, vi := range v {
				w += cmplx.Conj(vi) * c[i*nc+y]
			}
			for i, vi := range v {
				c[i*nc+y] -= tj * vi * w
			}
		}
	}
}

// checkApplied compares rows r0:r0+rows of the applied stack want (nc
// columns) with the tile got, within the panel bound scaled by ‖C‖.
func checkApplied[T vec.Scalar](t *testing.T, what string, got *tile.Dense[T], want []complex128, r0, nc int,
	bound float64) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		for y := 0; y < nc; y++ {
			if d := c128(got.At(i, y)) - want[(r0+i)*nc+y]; !(cmplx.Abs(d) <= bound) {
				t.Fatalf("%s: (%d,%d) = %v, reference %v (bound %g)", what, r0+i, y, got.At(i, y),
					want[(r0+i)*nc+y], bound)
			}
		}
	}
}

// applyScratch is the scratch conformApply runs every case with: enough
// for the GEMM heads (when the micro-GEMM takes the shape), and only the
// ib·nc block-reflector workspace, where every block-form apply falls
// back to its sweeps. Both
// arrive NaN-filled, so a head copy that leaves padding unwritten
// poisons the result.
func applyScratch[T vec.Scalar](m, ib, nc int) [][]T {
	return [][]T{nanSlice[T](ApplyWorkLen(m, ib, nc)), nanSlice[T](ib * nc)}
}

// conformUNMQR applies the Q of an m×k GEQRT factorization to a strided
// m×nc C whose surroundings must not change, with NaN in R's place in
// the factored tile (R is not part of V).
func conformUNMQR[T vec.Scalar](t *testing.T, m, k, ib, nc int) {
	t.Helper()
	a := tile.RandDense[T](m, k, int64(7*m+k))
	ibc := clampIB(ib, k)
	tf := nanSlice[T](ibc * k)
	GEQRT(m, k, ib, a.Data, a.Stride, tf, k, nil)
	vecOf := func(j int) []complex128 {
		v := make([]complex128, m)
		v[j] = 1
		for i := j + 1; i < m; i++ {
			v[i] = c128(a.At(i, j))
		}
		return v
	}
	tau := func(j int) complex128 { return c128(tf[(j%ibc)*k+j]) }
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			a.Set(i, j, nanOf[T]())
		}
	}
	c0 := tile.RandDense[T](m, nc, int64(m+nc))
	bound := panelBound[T](m) * tile.FrobNorm(c0)
	for _, trans := range []bool{true, false} {
		want := make([]complex128, m*nc)
		for i := range want {
			want[i] = c128(c0.Data[i])
		}
		refApply(trans, k, nc, vecOf, tau, want)
		for _, work := range applyScratch[T](m, ibc, nc) {
			what := fmt.Sprintf("UNMQR m=%d k=%d ib=%d nc=%d trans=%v work=%d", m, k, ib, nc, trans, len(work))
			back, c := padded(c0)
			UNMQR(trans, m, k, ib, a.Data, a.Stride, tf, k, c.Data, c.Stride, nc, work)
			checkPad(t, what, back, m, nc)
			checkApplied(t, what, c, want, 0, nc, bound)
		}
	}
}

// conformTPMQRT applies the Q of a TPQRT factorization of [A; B] (B m×k
// pentagonal of trapezoid height l) to a strided pair [C1; C2], with NaN
// in B below its trapezoid.
func conformTPMQRT[T vec.Scalar](t *testing.T, m, k, l, ib, nc int) {
	t.Helper()
	_, b, tf := tpFactor(t, m, k, l, ib, randUpperTri[T](k, int64(m+l)), randPent[T](m, k, l, int64(3*m+l)))
	ibc := clampIB(ib, k)
	vecOf := func(j int) []complex128 {
		v := make([]complex128, k+m)
		v[j] = 1
		for i := 0; i < pentRows(m, l, j); i++ {
			v[k+i] = c128(b.At(i, j))
		}
		return v
	}
	tau := func(j int) complex128 { return c128(tf[(j%ibc)*k+j]) }
	for j := 0; j < k; j++ {
		for i := pentRows(m, l, j); i < m; i++ {
			b.Set(i, j, nanOf[T]())
		}
	}
	c10, c20 := tile.RandDense[T](k, nc, int64(k+nc)), tile.RandDense[T](m, nc, int64(m+nc))
	bound := panelBound[T](k+m) * math.Hypot(tile.FrobNorm(c10), tile.FrobNorm(c20))
	for _, trans := range []bool{true, false} {
		want := make([]complex128, (k+m)*nc)
		for i := range c10.Data {
			want[i] = c128(c10.Data[i])
		}
		for i := range c20.Data {
			want[k*nc+i] = c128(c20.Data[i])
		}
		refApply(trans, k, nc, vecOf, tau, want)
		for _, work := range applyScratch[T](m, ibc, nc) {
			what := fmt.Sprintf("TPMQRT m=%d k=%d l=%d ib=%d nc=%d trans=%v work=%d", m, k, l, ib, nc, trans, len(work))
			back1, c1 := padded(c10)
			back2, c2 := padded(c20)
			TPMQRT(trans, m, k, l, ib, b.Data, b.Stride, tf, k, c1.Data, c1.Stride, c2.Data, c2.Stride, nc, work)
			checkPad(t, what, back1, k, nc)
			checkPad(t, what, back2, m, nc)
			checkApplied(t, what, c1, want, 0, nc, bound)
			checkApplied(t, what, c2, want, k, nc, bound)
		}
	}
}

// conformApplies holds UNMQR and TPMQRT to refApply on both sides of every
// form switch at the nb=64, ib=16 tile: nc just under and at
// vec.GemmMinCols and the nb−ib of an in-tile update; full, ragged (a last
// panel of one column) and ib=1 panels; TS, TT and a partial trapezoid.
// It also requires each form to have run where it should: the GEMM heads
// with the SIMD family in every domain (including the first TT panel,
// whose full rows are one), never in the generic family.
func conformApplies[T vec.Scalar](t *testing.T) {
	var forms [4]int
	applyHook = func(f applyForm) { forms[f]++ }
	defer func() { applyHook = nil }()
	const nb, ib = 64, 16
	for _, nc := range []int{vec.GemmMinCols - 1, vec.GemmMinCols, nb - ib} {
		conformUNMQR[T](t, nb, nb, ib, nc)
		conformUNMQR[T](t, nb+6, 3*ib+1, ib, nc)
		conformUNMQR[T](t, 2*nb+2, 20, 1, nc)
		for _, l := range []int{0, 20, nb} {
			conformTPMQRT[T](t, nb, nb, l, ib, nc)
		}
		conformTPMQRT[T](t, 50, 40, 40, ib, nc)
		conformTPMQRT[T](t, 2*nb+2, 20, 20, 1, nc)
	}
	if forms[formNarrow] == 0 || forms[formSweeps] == 0 {
		t.Fatalf("apply forms taken %v: want the narrow form and the sweeps each at least once", forms)
	}
	gemmHeads := vec.SIMDEnabled()
	if (forms[formGemm] > 0) != gemmHeads {
		t.Fatalf("apply forms taken %v: the GEMM heads ran %d times, want them iff SIMD (%v)",
			forms, forms[formGemm], gemmHeads)
	}
}

func conformAll[T vec.Scalar](t *testing.T) {
	conformPanels[T](t)
	conformApplies[T](t)
}

func TestPanelConformance(t *testing.T) {
	eachFamily(t, func(t *testing.T) {
		t.Run("s", conformAll[float32])
		t.Run("d", conformAll[float64])
		t.Run("c", conformAll[complex64])
		t.Run("z", conformAll[complex128])
	})
}

// scribble rewrites x[i] = NaN for every i in idx from another goroutine
// until the returned stop function is called. While it runs, a kernel that
// so much as copies one of those elements through its panel buffer is a
// data race the race detector reports; without the detector, a kernel that
// reads one spreads the NaN into its results.
func scribble[T vec.Scalar](x []T, idx []int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, i := range idx {
				x[i] = nanOf[T]()
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// panelSentinels is the region discipline the DAG scheduler relies on, at a
// production tile shape: TPQRT references neither A's strict lower triangle
// (the pivot tile's own GEQRT vectors, possibly being read by UNMQR) nor B
// below its trapezoid (the eliminated tile's vectors), and TPMQRT does not
// read V below the trapezoid either — not even to carry the values through
// the gather/scatter of the panel copy.
func panelSentinels[T vec.Scalar](t *testing.T) {
	const nb, ib = 64, 16
	for _, l := range []int{0, nb} {
		a := randUpperTri[T](nb, 41)
		b := randPent[T](nb, nb, l, 42)
		var lowA, lowB []int
		for j := 0; j < nb; j++ {
			for i := j + 1; i < nb; i++ {
				lowA = append(lowA, i*nb+j)
			}
			for i := pentRows(nb, l, j); i < nb; i++ {
				lowB = append(lowB, i*nb+j)
			}
		}
		tf := make([]T, ib*nb)
		c1 := tile.RandDense[T](nb, nb, 43)
		c2 := tile.RandDense[T](nb, nb, 44)
		stopA, stopB := scribble(a.Data, lowA), scribble(b.Data, lowB)
		TPQRT(nb, nb, l, ib, a.Data, nb, b.Data, nb, tf, nb, nil)
		// Without scratch TPMQRT sweeps; with it the complex domains take
		// the GEMM heads, whose V copy must stay inside the trapezoid too.
		for _, work := range [][]T{nil, make([]T, ApplyWorkLen(nb, ib, nb))} {
			TPMQRT(true, nb, nb, l, ib, b.Data, nb, tf, nb, c1.Data, nb, c2.Data, nb, nb, work)
		}
		stopA()
		stopB()
		for _, i := range lowA {
			if !isNaN(a.Data[i]) {
				t.Fatalf("l=%d: TPQRT wrote A(%d,%d) below the diagonal", l, i/nb, i%nb)
			}
			a.Data[i] = 0
		}
		for _, i := range lowB {
			if !isNaN(b.Data[i]) {
				t.Fatalf("l=%d: TPQRT wrote B(%d,%d) below the trapezoid", l, i/nb, i%nb)
			}
			b.Data[i] = 0
		}
		for _, d := range []*tile.Dense[T]{a, b, c1, c2} {
			for i, v := range d.Data {
				if isNaN(v) {
					t.Fatalf("l=%d: a sentinel outside the structure was read (NaN at %d,%d)", l, i/nb, i%nb)
				}
			}
		}
		for _, v := range tf {
			if isNaN(v) {
				t.Fatalf("l=%d: a sentinel outside the structure reached T", l)
			}
		}
	}
}

func TestPanelSentinels(t *testing.T) {
	eachFamily(t, func(t *testing.T) {
		t.Run("s", panelSentinels[float32])
		t.Run("d", panelSentinels[float64])
		t.Run("c", panelSentinels[complex64])
		t.Run("z", panelSentinels[complex128])
	})
}

// tallScratch: the panel copy grows with the tile's own height, which
// WorkLen(n, ib) knows nothing about. A tile far taller than wide must
// factor the same — bit for bit — with no scratch, with WorkLen-sized
// scratch (too short for its panel copy; the kernel allocates) and with
// scratch of its own FactorWorkLen.
func tallScratch[T vec.Scalar](t *testing.T) {
	const m, n, ib = 1000, 16, 8
	a0 := tile.RandDense[T](m, n, 51)
	r0 := randUpperTri[T](n, 52)
	var refA, refB, refR *tile.Dense[T]
	for _, work := range [][]T{nil, nanSlice[T](WorkLen(n, ib)), nanSlice[T](FactorWorkLen(m, n, ib))} {
		a, tg := a0.Clone(), make([]T, ib*n)
		GEQRT(m, n, ib, a.Data, n, tg, n, work)
		r, b, tp := r0.Clone(), a0.Clone(), make([]T, ib*n)
		TPQRT(m, n, 0, ib, r.Data, n, b.Data, n, tp, n, work)
		if refA == nil {
			refA, refB, refR = a, b, r
			q := tile.NewDense[T](m, n)
			for i := 0; i < n; i++ {
				q.Set(i, i, 1)
			}
			UNMQR(false, m, n, ib, a.Data, n, tg, n, q.Data, n, n, nil)
			checkQR(t, "tall GEQRT", a0, q, upperTriOf(a.View(0, 0, n, n)))
			continue
		}
		if tile.MaxAbsDiff(a, refA) != 0 || tile.MaxAbsDiff(b, refB) != 0 || tile.MaxAbsDiff(r, refR) != 0 {
			t.Fatalf("tall %dx%d tile: result depends on the scratch handed in (len %d)", m, n, len(work))
		}
	}
}

func TestTallTileScratch(t *testing.T) {
	t.Run("d", tallScratch[float64])
	t.Run("z", tallScratch[complex128])
}
