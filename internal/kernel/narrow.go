package kernel

import "tiledqr/internal/vec"

// The vector form of the Q appliers, for C narrower than vec.GemmMinCols
// (a single right-hand side is the case that matters: least squares with
// one b, the stream's Qᴴb fold, the distributed combine). The block
// reflector sweeps of applyPanel/applyPentPanel run along C's rows, nc
// elements at a time, and degenerate to one call per scalar when nc is 1.
// Here each column of C is a vector and the sweeps run along V's contiguous
// rows instead: w̄ += conj(c[i])·V[i, :] row by row, the triangular T
// product by short inline loops, c[i] −= V[i, :]·w one dot per row.
//
// The complex domains never conjugate V: the first sweep gathers w̄ =
// conj(Vᴴ·c), and since conj(Tᴴ·w) = Tᵀ·w̄ the trans product stays in the
// conjugated domain; one kb-element conjugation (after Tᵀ for trans,
// before T otherwise) returns to w for the unconjugated second sweep.

// applyPanelNarrow is applyPanel for nc < vec.GemmMinCols. w must have
// length ≥ kb.
func applyPanelNarrow[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w []T) {
	cc := vec.IsComplex[T]()
	w = w[:kb]
	mb := min(r0+kb, m) // first row below the unit-lower-triangular head
	for col := cc0; col < cc0+nc; col++ {
		clear(w)
		for i := r0; i < mb; i++ {
			d := i - r0 // head row i: unit diagonal of reflector d, columns < d to its left
			ci := conjIf(cc, c[i*ldc+col])
			w[d] = ci
			for x, vx := range v[i*ldv+vc0 : i*ldv+vc0+d] {
				w[x] += ci * vx
			}
		}
		if mb < m {
			vec.GemvTc(m-mb, kb, v[mb*ldv+vc0:], ldv, c[mb*ldc+col:], ldc, w)
		}
		triMulVec(trans, cc, t, ldt, tc0, w)
		for i := r0; i < mb; i++ {
			d := i - r0
			s := w[d]
			for x, vx := range v[i*ldv+vc0 : i*ldv+vc0+d] {
				s += vx * w[x]
			}
			c[i*ldc+col] -= s
		}
		if mb < m {
			vec.GemvNSub(m-mb, kb, v[mb*ldv+vc0:], ldv, w, c[mb*ldc+col:], ldc)
		}
	}
}

// applyPentPanelNarrow is applyPentPanel for nc < vec.GemmMinCols. w must
// have length ≥ kb. Rows 0:mFull of C2 meet every reflector column of the
// panel; row i ≥ mFull meets only the suffix x ≥ i − (m−l) − vc0.
func applyPentPanelNarrow[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w []T) {
	cc := vec.IsComplex[T]()
	w = w[:kb]
	mFull := pentRows(m, l, vc0)
	pmax := pentRows(m, l, vc0+kb-1)
	off := m - l + vc0
	for col := 0; col < nc; col++ {
		for x := range w {
			w[x] = conjIf(cc, c1[(vc0+x)*ldc1+c1c0+col])
		}
		vec.GemvTc(mFull, kb, v[vc0:], ldv, c2[c2c0+col:], ldc2, w)
		for i := mFull; i < pmax; i++ {
			ci, wt := conjIf(cc, c2[i*ldc2+c2c0+col]), w[i-off:]
			for x, vx := range v[i*ldv+vc0+i-off : i*ldv+vc0+kb] {
				wt[x] += ci * vx
			}
		}
		triMulVec(trans, cc, t, ldt, vc0, w)
		for x, wx := range w {
			c1[(vc0+x)*ldc1+c1c0+col] -= wx
		}
		vec.GemvNSub(mFull, kb, v[vc0:], ldv, w, c2[c2c0+col:], ldc2)
		for i := mFull; i < pmax; i++ {
			var s T
			wt := w[i-off:]
			for x, vx := range v[i*ldv+vc0+i-off : i*ldv+vc0+kb] {
				s += vx * wt[x]
			}
			c2[i*ldc2+c2c0+col] -= s
		}
	}
}

// triMulVec takes w̄ = conj(w) (w itself in the real domains) and leaves
// Tᴴ·w (trans) or T·w in its place, T being the len(w)×len(w) upper
// triangular block in columns tc0: of t. The trans product is formed as
// Tᵀ·w̄, row r of T scattering into w̄[r:] from the bottom row up so every
// entry is consumed before it is overwritten; the other as one dot per row
// from the top down.
func triMulVec[T vec.Scalar](trans, cc bool, t []T, ldt, tc0 int, w []T) {
	kb := len(w)
	if cc && !trans {
		conjVec(w)
	}
	if trans {
		for r := kb - 1; r >= 0; r-- {
			trow := t[r*ldt+tc0+r : r*ldt+tc0+kb]
			wr := w[r]
			w[r] = trow[0] * wr
			wt := w[r+1:]
			for x, tv := range trow[1:] {
				wt[x] += tv * wr
			}
		}
	} else {
		for r := 0; r < kb; r++ {
			wt := w[r:]
			var s T
			for x, tv := range t[r*ldt+tc0+r : r*ldt+tc0+kb] {
				s += tv * wt[x]
			}
			w[r] = s
		}
	}
	if cc && trans {
		conjVec(w)
	}
}

func conjVec[T vec.Scalar](w []T) {
	for x, wx := range w {
		w[x] = vec.Conj(wx)
	}
}
