package kernel

import "tiledqr/internal/vec"

// pentRows returns the number of rows of the pentagonal block B that
// participate in reflector j (0-based), for an m×n B with trapezoid height l:
// column j of B has m−l+min(l, j+1) structurally nonzero leading rows.
// l = 0 gives the TS ("square") case, l = min(m,n) the TT ("triangle") case.
func pentRows(m, l, j int) int {
	return m - l + min(l, j+1)
}

// tpqrt2 factors one panel (columns j0:j0+kb) of the stacked matrix
// [A; B] where A is n×n upper triangular and B is m×n pentagonal with
// trapezoid height l. z must have length ≥ kb and p length ≥
// (kb+1)·pentRows(m, l, j0+kb−1): the panel copy, then room for the
// rotated reflector copy of vec.TimesI.
//
// As in geqrt2 the panel of B is gathered into p column by column —
// only each column's pentRows structural rows, so nothing below the
// trapezoid is read, copied or written back — and factored there with
// contiguous sweeps. Reflector jj is (e_jj; v₂) with v₂ = B(0:pj, j),
// pj = pentRows(m, l, j): its unit sits in A's row j, which is row-major
// contiguous already and stays in place. The update columns (c > jj) are at
// least pj tall and take all of v₂; an earlier reflector column c < jj has
// only pentRows(m, l, j0+c) ≤ pj structural rows, and the zeros gatherPanel
// put below them let its T-column product run to pj as well. The
// reflectors' tops are distinct identity columns, so A contributes nothing
// to those products.
func tpqrt2[T vec.Scalar](m, l int, a []T, lda int, b []T, ldb, j0, kb int,
	t []T, ldt int, z, p []T) {
	cc := vec.IsComplex[T]()
	full, ldp := pentRows(m, l, j0), pentRows(m, l, j0+kb-1)
	gatherPanel(b, ldb, j0, kb, full, ldp-full, p, ldp)
	ivBuf := p[kb*ldp:]
	for jj := 0; jj < kb; jj++ {
		j := j0 + jj
		v := p[jj*ldp : jj*ldp+pentRows(m, l, j)]
		var tau T
		a[j*lda+j], tau = larfg(a[j*lda+j], v)
		if tau != 0 {
			var iv []T
			if cc {
				iv = vec.TimesI(v, ivBuf)
			}
			if jj+1 < kb {
				vec.ReflectCols(conjIf(cc, tau), v, iv, a[j*lda+j+1:], 1, p[(jj+1)*ldp:], ldp, kb-jj-1)
			}
			vec.DotcCols(v, iv, p, ldp, jj, z)
		}
		tColumn(t, ldt, j0, jj, tau, z)
	}
	scatterPanel(p, ldp, b, ldb, j0, kb, full, ldp-full)
}

// applyPentPanel applies the block reflector of a TPQRT panel (columns
// vc0:vc0+kb of the pentagonal array v, with T in columns vc0:vc0+kb of t)
// to the stacked pair [C1; C2]. The identity part of reflector column vc0+x
// acts on row vc0+x of C1; the pentagonal part acts on C2. If trans it
// applies (I − V·Tᴴ·Vᴴ), else I − V·T·Vᴴ. w must have length ≥ kb·nc;
// pack is micro-GEMM scratch and may be empty (the packed paths then stay
// off). The forms are applyPanel's: the vector form
// (applyPentPanelNarrow) for C narrower than vec.GemmMinCols, then
// applyPentPanelGemm when the micro-GEMM takes it, else
// applyPentPanelSweeps.
func applyPentPanel[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w, pack []T) {
	form := formSweeps
	switch {
	case nc < vec.GemmMinCols:
		form = formNarrow
		applyPentPanelNarrow(trans, m, l, v, ldv, vc0, kb, t, ldt, c1, ldc1, c1c0, c2, ldc2, c2c0, nc, w)
	case applyPentPanelGemm(trans, m, l, v, ldv, vc0, kb, t, ldt,
		c1, ldc1, c1c0, c2, ldc2, c2c0, nc, w, pack):
		form = formGemm
	default:
		applyPentPanelSweeps(trans, m, l, v, ldv, vc0, kb, t, ldt, c1, ldc1, c1c0, c2, ldc2, c2c0, nc, w)
	}
	if applyHook != nil {
		applyHook(form)
	}
}

// applyPentPanelGemm is applyPentPanel's packed form. The panel's
// structural rows of V — for TT the staircase as well as the full
// rows above it, pentRows(m, l, vc0+kb−1) in all — are copied into the
// pack region as one matrix with zeros below each column's height, so
// nothing outside the trapezoid is read and each sweep over C2 is one
// packed product: W = C1[vc0:vc0+kb] + Vᴴ·C2, then T·W (triMulGemm), then
// C1 −= T·W and C2 −= V·(T·W). Covering every structural row in the one
// product keeps a TT panel whose full rows are few (the first panel of a
// square TTQRT has one) to one product per sweep, with no staircase left
// to the vector primitives. It reports false, touching nothing, when the
// micro-GEMM declines the shapes or the scratch.
func applyPentPanelGemm[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w, pack []T) bool {
	rows := pentRows(m, l, vc0+kb-1)
	vp, tp, tw, gp, ok := headSplit[T](rows, kb, nc, pack)
	if !ok {
		return false
	}
	off := m - l + vc0 // row i meets the reflector columns x ≥ i − off
	for i := 0; i < rows; i++ {
		row := vp[i*kb : i*kb+kb]
		xs := max(0, i-off)
		clear(row[:xs])
		copy(row[xs:], v[i*ldv+vc0+xs:i*ldv+vc0+kb])
	}
	w = w[:kb*nc]
	for x := 0; x < kb; x++ {
		top := (vc0+x)*ldc1 + c1c0
		copy(w[x*nc:x*nc+nc], c1[top:top+nc])
	}
	vec.GemmTN(kb, nc, rows, T(1), vp, kb, c2[c2c0:], ldc2, w, nc, gp)
	tw = triMulGemm(trans, kb, t, ldt, vc0, w, nc, tp, tw, gp)
	for x := 0; x < kb; x++ {
		top := (vc0+x)*ldc1 + c1c0
		vec.Sub(tw[x*nc:x*nc+nc], c1[top:top+nc])
	}
	vec.GemmNN(rows, nc, kb, T(-1), vp, kb, tw, nc, c2[c2c0:], ldc2, gp)
	return true
}

// applyPentPanelSweeps is applyPentPanel's block-reflector form along C's
// rows, on the vector primitives alone: the form a panel takes when the
// micro-GEMM declines applyPentPanelGemm.
func applyPentPanelSweeps[T vec.Scalar](trans bool, m, l int, v []T, ldv, vc0, kb int,
	t []T, ldt int,
	c1 []T, ldc1, c1c0 int,
	c2 []T, ldc2, c2c0, nc int, w []T) {
	xBlock := xBlockOf[T]()
	cc := vec.IsComplex[T]()
	// W = C1[vc0+x] + V₂ᴴ · C2. The C1 rows seed W (the identity tops of
	// the reflectors); then one sweep over C2's structural rows accumulates
	// the pentagonal parts — row i of C2 is read once and feeds the
	// reflector columns whose pentagonal height exceeds i (a suffix
	// x ≥ xmin, since pentRows is nondecreasing in the column index).
	for x := 0; x < kb; x++ {
		top := (vc0 + x) * ldc1
		copy(w[x*nc:x*nc+nc], c1[top+c1c0:top+c1c0+nc])
	}
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		pmaxB := pentRows(m, l, vc0+xe-1)
		for i := 0; i < pmaxB; i++ {
			ci := c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc]
			xs := xb
			if d := i - (m - l) - vc0; d > xs {
				xs = d
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+xe]
			for x := xs; x < xe; x++ {
				vec.Axpy(conjIf(cc, vrow[x]), ci, w[x*nc:x*nc+nc])
			}
		}
	}
	triMulW(trans, kb, t, ldt, vc0, w, nc)
	// C1 −= W ; C2 −= V₂·W, same blocking, consuming W rows in pairs per
	// C2 row.
	for x := 0; x < kb; x++ {
		top := (vc0 + x) * ldc1
		vec.Sub(w[x*nc:x*nc+nc], c1[top+c1c0:top+c1c0+nc])
	}
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		pmaxB := pentRows(m, l, vc0+xe-1)
		for i := 0; i < pmaxB; i++ {
			ci := c2[i*ldc2+c2c0 : i*ldc2+c2c0+nc]
			xs := xb
			if d := i - (m - l) - vc0; d > xs {
				xs = d
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+xe]
			x := xs
			for ; x+1 < xe; x += 2 {
				vec.Axpy2(-vrow[x], w[x*nc:x*nc+nc], -vrow[x+1], w[(x+1)*nc:(x+1)*nc+nc], ci)
			}
			if x < xe {
				vec.Axpy(-vrow[x], w[x*nc:x*nc+nc], ci)
			}
		}
	}
}

// TPQRT computes the blocked QR factorization of the stacked matrix [A; B]
// where A is the n×n upper triangular R of the pivot tile (its strictly
// lower part is NOT referenced — it may hold the pivot's own Householder
// vectors) and B is an m×n pentagonal tile with trapezoid height l:
//
//	l = 0        — TSQRT: B is a full square/rectangular tile
//	l = min(m,n) — TTQRT: B is upper triangular/trapezoidal (the R of the
//	               tile being zeroed); entries of B outside the trapezoid
//	               are not referenced
//
// On return A holds the updated R, B holds the V₂ parts of the reflectors,
// and t (ib rows, stride ldt ≥ n) holds the panel T factors. work may be
// nil or a scratch slice; as for GEQRT, length ≥ WorkLen(max(m, n), ib) is
// always enough, the kernel's own need is FactorWorkLen(m, n, ib), and a
// shorter slice is replaced by a fresh allocation.
func TPQRT[T vec.Scalar](m, n, l, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	if n == 0 || m == 0 {
		return
	}
	if l < 0 || l > min(m, n) {
		panic("kernel: TPQRT requires 0 ≤ l ≤ min(m,n)")
	}
	ib = clampIB(ib, n)
	work = ensureWork(work, FactorWorkLen(m, n, ib))
	z, w, pack := work[:ib], work[ib:ib+ib*n], work[ib+ib*n:]
	for k0 := 0; k0 < n; k0 += ib {
		kb := min(ib, n-k0)
		tpqrt2(m, l, a, lda, b, ldb, k0, kb, t, ldt, z, pack)
		if k0+kb < n {
			// Trailing update inside [A; B]: C1 is A's rows k0:k0+kb,
			// columns k0+kb:n; C2 is B's columns k0+kb:n.
			applyPentPanel(true, m, l, b, ldb, k0, kb, t, ldt,
				a, lda, k0+kb, b, ldb, k0+kb, n-k0-kb, w, pack)
		}
	}
}

// TSQRT is TPQRT with l = 0: zero a full m×n tile b using the n×n triangle a
// on top of it (Algorithm 2 of the paper, "triangle on top of square").
func TSQRT[T vec.Scalar](m, n, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	TPQRT(m, n, 0, ib, a, lda, b, ldb, t, ldt, work)
}

// TTQRT is TPQRT with l = min(m,n): zero the triangular/trapezoidal tile b
// using the triangle a on top of it (Algorithm 3, "triangle on top of
// triangle"). Its pentagonal structure is what makes it cost 2 weight units
// instead of TSQRT's 6.
func TTQRT[T vec.Scalar](m, n, ib int, a []T, lda int, b []T, ldb int,
	t []T, ldt int, work []T) {
	TPQRT(m, n, min(m, n), ib, a, lda, b, ldb, t, ldt, work)
}

// TPMQRT applies the transformation computed by TPQRT to the stacked pair
// [C1; C2]: rows 0:k of the tile c1 and the full m×nc tile c2. v (m×k
// pentagonal, trapezoid height l) and t are TPQRT's outputs; trans selects
// Qᴴ (as used during factorization) versus Q. c1 and c2 may be strided
// views. work may be nil or a scratch slice of length ≥ ib·nc; length ≥
// ApplyWorkLen(m, ib, nc) additionally enables the packed paths. As in
// UNMQR, nc < vec.GemmMinCols selects the vector form (ib elements of work)
// and wider C the block-reflector form.
func TPMQRT[T vec.Scalar](trans bool, m, k, l, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	if k == 0 || nc == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, ib*nc)
	w, pack := work[:ib*nc], work[ib*nc:]
	if trans {
		for k0 := 0; k0 < k; k0 += ib {
			kb := min(ib, k-k0)
			applyPentPanel(true, m, l, v, ldv, k0, kb, t, ldt,
				c1, ldc1, 0, c2, ldc2, 0, nc, w, pack)
		}
	} else {
		start := ((k - 1) / ib) * ib
		for k0 := start; k0 >= 0; k0 -= ib {
			kb := min(ib, k-k0)
			applyPentPanel(false, m, l, v, ldv, k0, kb, t, ldt,
				c1, ldc1, 0, c2, ldc2, 0, nc, w, pack)
		}
	}
}

// TSMQR is TPMQRT with l = 0 (apply a TSQRT transformation).
func TSMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	TPMQRT(trans, m, k, 0, ib, v, ldv, t, ldt, c1, ldc1, c2, ldc2, nc, work)
}

// TTMQR is TPMQRT with l = min(m,k) (apply a TTQRT transformation).
func TTMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c1 []T, ldc1 int, c2 []T, ldc2, nc int, work []T) {
	TPMQRT(trans, m, k, min(m, k), ib, v, ldv, t, ldt, c1, ldc1, c2, ldc2, nc, work)
}
