package kernel

import (
	"math"
	"unsafe"

	"tiledqr/internal/vec"
)

// larfg generates an elementary Householder reflector H = I − τ·v·vᴴ with
// v = (1; v₂) for the column (α; x) so that Hᴴ·(α; x) = (β; 0) with β real.
// x is contiguous and is overwritten with v₂; β and τ are returned. When
// x = 0 and α is real, H = I: τ = 0, β = α and x is left alone. For the real
// domains the conjugation degenerates and this is exactly LAPACK's dlarfg;
// for the complex domains τ is complex and β is forced real, as in zlarfg.
//
// The tail norm uses the safe single-pass Nrm2 — one Sqrt per reflector
// instead of one Hypot (or Hypot+Abs) per element — and the final α/xnorm
// combination keeps one Hypot for its overflow safety. The β/τ arithmetic
// runs in float64 for every domain, so the single-precision types only
// round once at the end.
func larfg[T vec.Scalar](alpha T, x []T) (beta, tau T) {
	var xnorm float64
	if len(x) > 0 {
		xnorm = vec.Nrm2(x)
	}
	if xnorm == 0 && vec.ImagPart(alpha) == 0 {
		return alpha, 0
	}
	b := -math.Copysign(math.Hypot(vec.Abs(alpha), xnorm), vec.RealPart(alpha))
	tau = vec.FromParts[T]((b-vec.RealPart(alpha))/b, -vec.ImagPart(alpha)/b)
	beta = vec.FromParts[T](b, 0)
	vec.Scal(1/(alpha-beta), x)
	return beta, tau
}

// gatherPanel copies columns j0:j0+kb of the row-major array b (row stride
// ldb) into p column by column: column c lands contiguously at p[c·ldp:].
// Rows 0:full are copied for every column; row full+d (d < ragged) only for
// columns c > d — the staircase of a pentagonal panel, whose column c is
// one row taller than column c−1 — and the columns c ≤ d get an explicit
// zero there, so that sweeps over a later, taller column's height may run
// over the earlier ones too. Nothing outside the staircase is read from b,
// and scatterPanel, the inverse copy, writes nothing outside it.
//
// The full rows go four at a time: each source row is read once,
// sequentially, and every destination column receives four adjacent
// elements per visit, which is what keeps a transposing copy from paying
// one cache line per element.
func gatherPanel[T vec.Scalar](b []T, ldb, j0, kb, full, ragged int, p []T, ldp int) {
	i := 0
	for ; i+4 <= full; i += 4 {
		r0 := b[i*ldb+j0 : i*ldb+j0+kb]
		r1 := b[(i+1)*ldb+j0 : (i+1)*ldb+j0+kb]
		r2 := b[(i+2)*ldb+j0 : (i+2)*ldb+j0+kb]
		r3 := b[(i+3)*ldb+j0 : (i+3)*ldb+j0+kb]
		for c := range r0 {
			d := p[c*ldp+i : c*ldp+i+4]
			d[0], d[1], d[2], d[3] = r0[c], r1[c], r2[c], r3[c]
		}
	}
	for ; i < full+ragged; i++ {
		row := b[i*ldb+j0 : i*ldb+j0+kb]
		c := 0
		for ; c <= i-full; c++ {
			p[c*ldp+i] = 0
		}
		for ; c < kb; c++ {
			p[c*ldp+i] = row[c]
		}
	}
}

func scatterPanel[T vec.Scalar](p []T, ldp int, b []T, ldb, j0, kb, full, ragged int) {
	i := 0
	for ; i+4 <= full; i += 4 {
		r0 := b[i*ldb+j0 : i*ldb+j0+kb]
		r1 := b[(i+1)*ldb+j0 : (i+1)*ldb+j0+kb]
		r2 := b[(i+2)*ldb+j0 : (i+2)*ldb+j0+kb]
		r3 := b[(i+3)*ldb+j0 : (i+3)*ldb+j0+kb]
		for c := range r0 {
			d := p[c*ldp+i : c*ldp+i+4]
			r0[c], r1[c], r2[c], r3[c] = d[0], d[1], d[2], d[3]
		}
	}
	for ; i < full+ragged; i++ {
		row := b[i*ldb+j0 : i*ldb+j0+kb]
		for c := max(0, i-full+1); c < kb; c++ {
			row[c] = p[c*ldp+i]
		}
	}
}

// tColumn finishes column j0+jj of a panel's triangular factor from the
// reflector's τ and the products z[c] = v_cᴴ·v_jj (c < jj) of the earlier
// reflector columns with the new one:
// T(0:jj, jj) = −τ·T(0:jj, 0:jj)·z, T(jj, jj) = τ. With τ = 0 (H = I) the
// column is zero and z is not read.
func tColumn[T vec.Scalar](t []T, ldt, j0, jj int, tau T, z []T) {
	j := j0 + jj
	for r := 0; r < jj; r++ {
		var trj T
		if tau != 0 {
			trj = -tau * vec.Dot(t[r*ldt+j0+r:r*ldt+j0+jj], z[r:jj])
		}
		t[r*ldt+j] = trj
	}
	t[jj*ldt+j] = tau
}

// geqrt2 factors the panel A[j0:m, j0:j0+kb] in place by Householder
// reflections and stores the panel's kb×kb triangular factor in columns
// j0:j0+kb of t (which has row stride ldt and at least kb rows). z must
// have length ≥ kb and p length ≥ (kb+1)·(m−j0): the panel copy, then room
// for the rotated reflector copy the complex sweeps run on (vec.TimesI).
//
// The panel is tall and thin (m−j0 rows, kb ≤ ib columns) inside a
// row-major tile, so every vector the reflectors need — the column whose
// norm larfg takes, the reflector itself, the columns it updates — runs
// down the tile at stride lda, while the contiguous direction is only kb
// long. The panel is therefore gathered into p column by column, factored
// there, and scattered back: larfg, the in-panel update (ReflectCols, one
// fused dot-then-axpy per remaining column) and the T-column products
// (DotcCols) all sweep contiguous vectors of length ~m−j0. Sweeping the
// rows in place instead costs one primitive call per kb-element row —
// ~2·(m−j0) calls per reflector where this form makes kb — and at kb ≤ 32
// those calls are mostly dispatch. The two transposing copies move
// 2·kb·(m−j0) elements against the panel's ~2·kb²·(m−j0) flops.
func geqrt2[T vec.Scalar](m int, a []T, lda, j0, kb int, t []T, ldt int, z, p []T) {
	cc := vec.IsComplex[T]()
	rows := m - j0
	gatherPanel(a[j0*lda:], lda, j0, kb, rows, 0, p, rows)
	ivBuf := p[kb*rows:]
	for jj := 0; jj < kb; jj++ {
		col := p[jj*rows : (jj+1)*rows]
		v := col[jj+1:]
		var tau T
		col[jj], tau = larfg(col[jj], v)
		if tau != 0 {
			// Apply Hᴴ to the remaining panel columns, then form
			// z[c] = v_cᴴ·v_jj: v_c has its unit at row c < jj and v_jj has
			// zeros above its own unit at row jj, so the product is
			// conj(v_c[jj]) plus the dot over the rows below jj.
			var iv []T // the real domains' sweeps need no rotated copy
			if cc {
				iv = vec.TimesI(v, ivBuf)
			}
			if jj+1 < kb {
				next := p[(jj+1)*rows+jj:]
				vec.ReflectCols(conjIf(cc, tau), v, iv, next, rows, next[1:], rows, kb-jj-1)
			}
			vec.DotcCols(v, iv, p[jj+1:], rows, jj, z)
			for c := 0; c < jj; c++ {
				z[c] += conjIf(cc, p[c*rows+jj])
			}
		}
		tColumn(t, ldt, j0, jj, tau, z)
	}
	scatterPanel(p, rows, a[j0*lda:], lda, j0, kb, rows, 0)
}

// applyPanel applies the block reflector of a GEQRT panel to C.
// The panel's reflectors are the unit-lower-trapezoidal columns
// v[r0:m, vc0:vc0+kb] of the array v; the block triangular factor is in
// columns tc0:tc0+kb of t. If trans is true it applies (I − V·Tᴴ·Vᴴ)
// (i.e. Qᴴ; Qᵀ in the real domains), otherwise I − V·T·Vᴴ. Only rows r0:m
// of C[, cc0:cc0+nc] are touched. w must have length ≥ kb·nc; pack is
// micro-GEMM scratch and may be empty (the packed paths then stay off).
//
// It takes one of three forms, by the same rule in every domain:
//   - C narrower than vec.GemmMinCols: the vector form (applyPanelNarrow),
//     sweeps along V's rows;
//   - applyPanelGemm, every structural row of V in one packed product per
//     sweep and T·W one more, when the micro-GEMM takes the shapes and the
//     scratch;
//   - otherwise applyPanelSweeps, the block-reflector sweeps along C's
//     rows, the fallback for the backend off or short scratch.
func applyPanel[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w, pack []T) {
	form := formSweeps
	switch {
	case nc < vec.GemmMinCols:
		form = formNarrow
		applyPanelNarrow(trans, m, v, ldv, r0, vc0, kb, t, ldt, tc0, c, ldc, cc0, nc, w)
	case applyPanelGemm(trans, m, v, ldv, r0, vc0, kb, t, ldt, tc0, c, ldc, cc0, nc, w, pack):
		form = formGemm
	default:
		applyPanelSweeps(trans, m, v, ldv, r0, vc0, kb, t, ldt, tc0, c, ldc, cc0, nc, w)
	}
	if applyHook != nil {
		applyHook(form)
	}
}

// applyForm is the form a block-reflector apply took (see applyPanel).
type applyForm int

const (
	formNarrow applyForm = iota // vector form along V's rows
	formSweeps                  // sweeps along C's rows
	formGemm                    // every structural row in packed products
	formTriW                    // a GEMM head's T·W on triMulW's sweeps
)

// applyHook, when non-nil, is told the form of every applyPanel and
// applyPentPanel call, and formTriW whenever triMulGemm falls back. Tests
// set it to assert which form a shape takes.
var applyHook func(applyForm)

// applyPanelGemm is applyPanel's packed form. The panel's structural V
// rows r0:m — the unit-lower head, then the bulk — are copied into the
// pack region as one (m−r0)×kb matrix, the head's unit diagonal
// written out and zeros where R sits above it, so nothing outside the
// trapezoid is read and each sweep is one packed product over every row:
// W = Vᴴ·C, then T·W (triMulGemm), then C −= V·(T·W). The copy also frees
// GEQRT's trailing update, where V and C share a tile, from any aliasing.
// It reports false, touching nothing, when the micro-GEMM declines the
// shapes or the scratch.
func applyPanelGemm[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w, pack []T) bool {
	rows := m - r0
	vp, tp, tw, gp, ok := headSplit[T](rows, kb, nc, pack)
	if !ok {
		return false
	}
	for i := 0; i < rows; i++ {
		row := vp[i*kb : i*kb+kb]
		d := min(i, kb) // reflector columns x < d have an entry in row r0+i
		copy(row[:d], v[(r0+i)*ldv+vc0:(r0+i)*ldv+vc0+d])
		if d < kb {
			row[d] = 1
			clear(row[d+1:])
		}
	}
	ch := c[r0*ldc+cc0:]
	w = w[:kb*nc]
	clear(w)
	vec.GemmTN(kb, nc, rows, T(1), vp, kb, ch, ldc, w, nc, gp)
	tw = triMulGemm(trans, kb, t, ldt, tc0, w, nc, tp, tw, gp)
	vec.GemmNN(rows, nc, kb, T(-1), vp, kb, tw, nc, ch, ldc, gp)
	return true
}

// headLen is the scratch the GEMM heads carve from the front of the pack
// region before the micro-GEMM's own: the structural V copy (rows×kb), the
// zero-padded T (kb×kb) and T·W (kb×nc).
func headLen(rows, kb, nc int) int { return kb * (rows + kb + nc) }

// headSplit carves headLen(rows, kb, nc) from pack into the V copy vp, the
// T copy tp and T·W tw, and reports whether the micro-GEMM takes both V
// products with the rest, gp, as its scratch.
func headSplit[T vec.Scalar](rows, kb, nc int, pack []T) (vp, tp, tw, gp []T, ok bool) {
	n := headLen(rows, kb, nc)
	if len(pack) < n {
		return nil, nil, nil, nil, false
	}
	vp, tp, tw, gp = pack[:rows*kb], pack[rows*kb:rows*kb+kb*kb], pack[rows*kb+kb*kb:n], pack[n:]
	ok = vec.GemmOK[T](kb, nc, rows, len(gp)) && vec.GemmOK[T](rows, nc, kb, len(gp))
	return vp, tp, tw, gp, ok
}

// triMulGemm returns Tᴴ·W (trans) or T·W for the GEMM heads, T the upper
// triangular block in columns tc0:tc0+kb of t: one packed product of W
// with tp, a copy of T's triangle zero-padded below the diagonal, into
// tw. When the micro-GEMM declines the kb×nc×kb shape it falls back to
// triMulW's sweeps over W in place, and returns W; past headSplit's checks
// only short scratch on a panel with fewer structural rows than kb can
// make it decline.
func triMulGemm[T vec.Scalar](trans bool, kb int, t []T, ldt, tc0 int, w []T, nc int, tp, tw, gp []T) []T {
	if !vec.GemmOK[T](kb, nc, kb, len(gp)) {
		if applyHook != nil {
			applyHook(formTriW)
		}
		triMulW(trans, kb, t, ldt, tc0, w, nc)
		return w
	}
	for r := 0; r < kb; r++ {
		row := tp[r*kb : r*kb+kb]
		clear(row[:r])
		copy(row[r:], t[r*ldt+tc0+r:r*ldt+tc0+kb])
	}
	clear(tw)
	if trans {
		vec.GemmTN(kb, nc, kb, T(1), tp, kb, w, nc, tw, nc, gp)
	} else {
		vec.GemmNN(kb, nc, kb, T(1), tp, kb, w, nc, tw, nc, gp)
	}
	return tw
}

// applyPanelSweeps is applyPanel's block-reflector form along C's rows,
// on the vector primitives alone: the form a panel takes when the
// micro-GEMM declines applyPanelGemm.
func applyPanelSweeps[T vec.Scalar](trans bool, m int, v []T, ldv, r0, vc0, kb int,
	t []T, ldt, tc0 int, c []T, ldc, cc0, nc int, w []T) {
	xBlock := xBlockOf[T]()
	cc := vec.IsComplex[T]()
	// W = Vᴴ · C, swept in blocks of xBlock reflector columns: each block's
	// W rows stay cache-resident while C's rows stream through, so the C
	// tile is read ⌈kb/xBlock⌉ times instead of kb times. The head rows
	// also seed every W row (the copy at the reflector diagonal).
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		for i := r0 + xb; i < m; i++ {
			ci := c[i*ldc+cc0 : i*ldc+cc0+nc]
			d := i - r0 // reflector columns x < d accumulate row i
			nx := min(d, xe)
			if d < xe {
				copy(w[d*nc:d*nc+nc], ci) // diagonal row of reflector d: v = 1
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+nx]
			for x := xb; x < nx; x++ {
				vec.Axpy(conjIf(cc, vrow[x]), ci, w[x*nc:x*nc+nc])
			}
		}
	}
	triMulW(trans, kb, t, ldt, tc0, w, nc)
	// C −= V · W, same blocking, consuming W rows in pairs per C row.
	for xb := 0; xb < kb; xb += xBlock {
		xe := min(xb+xBlock, kb)
		for i := r0 + xb; i < m; i++ {
			ci := c[i*ldc+cc0 : i*ldc+cc0+nc]
			d := i - r0
			nx := min(d, xe)
			if d < xe {
				vec.Sub(w[d*nc:d*nc+nc], ci)
			}
			vrow := v[i*ldv+vc0 : i*ldv+vc0+nx]
			x := xb
			for ; x+1 < nx; x += 2 {
				vec.Axpy2(-vrow[x], w[x*nc:x*nc+nc], -vrow[x+1], w[(x+1)*nc:(x+1)*nc+nc], ci)
			}
			if x < nx {
				vec.Axpy(-vrow[x], w[x*nc:x*nc+nc], ci)
			}
		}
	}
}

// conjIf returns Conj(v) when cc is set and v unchanged otherwise. cc is
// vec.IsComplex[T]() computed once per kernel call: in gcshape-generic code
// a bare vec.Conj compiles to a dictionary type switch, which costs real
// time when paid per reflector column inside the hot sweeps; hoisting the
// domain test to one branch keeps the real instantiations free of it.
func conjIf[T vec.Scalar](cc bool, v T) T {
	if cc {
		return vec.Conj(v)
	}
	return v
}

// xBlockOf is the reflector-column blocking of the panel appliers: xBlock
// rows of the W workspace stay L1-resident alongside the streaming C row.
// The budget is held in bytes (128·sizeof(T) per W row at nb columns), so
// every domain blocks to the same cache footprint: 16 columns for float64,
// 8 for complex128, 32/16 for the single-precision pair.
func xBlockOf[T vec.Scalar]() int {
	var z T
	return 128 / int(unsafe.Sizeof(z))
}

// triMulW overwrites the kb×nc workspace W with Tᴴ·W (trans) or T·W, where T
// is the upper triangular block in columns tc0:tc0+kb of t, row by row in
// place: the sweeps' T product, and the GEMM heads' when the micro-GEMM
// declines it (triMulGemm). The diagonal scale is fused with
// the first off-diagonal accumulation via AddScaled.
func triMulW[T vec.Scalar](trans bool, kb int, t []T, ldt, tc0 int, w []T, nc int) {
	if trans {
		cc := vec.IsComplex[T]()
		// New W[x] depends on old W[0..x]; sweep x downward.
		for x := kb - 1; x >= 0; x-- {
			wx := w[x*nc : x*nc+nc]
			txx := conjIf(cc, t[x*ldt+tc0+x])
			if x == 0 {
				vec.Scal(txx, wx)
				continue
			}
			vec.AddScaled(txx, conjIf(cc, t[tc0+x]), w[:nc], wx)
			for r := 1; r < x; r++ {
				vec.Axpy(conjIf(cc, t[r*ldt+tc0+x]), w[r*nc:r*nc+nc], wx)
			}
		}
	} else {
		// New W[x] depends on old W[x..kb-1]; sweep x upward.
		for x := 0; x < kb; x++ {
			wx := w[x*nc : x*nc+nc]
			txx := t[x*ldt+tc0+x]
			if x == kb-1 {
				vec.Scal(txx, wx)
				continue
			}
			vec.AddScaled(txx, t[x*ldt+tc0+x+1], w[(x+1)*nc:(x+1)*nc+nc], wx)
			for r := x + 2; r < kb; r++ {
				vec.Axpy(t[x*ldt+tc0+r], w[r*nc:r*nc+nc], wx)
			}
		}
	}
}

// GEQRT computes the blocked QR factorization of the m×n tile a (row stride
// lda): A = Q·R with Q = H₁···H_k, k = min(m,n). On return the upper
// triangle/trapezoid of a holds R, the strictly lower part holds the
// Householder vectors V, and t (ib rows, row stride ldt ≥ n) holds the
// ib×ib triangular T factors of each column panel. work may be nil or a
// scratch slice. Length ≥ WorkLen(max(m, n), ib) is always enough (every
// engine workspace is sized that way); the kernel's own need is
// FactorWorkLen(m, n, ib) — WorkLen(n, ib) unless the tile is so much
// taller than wide that its ib-column panel copy outgrows the pack region —
// and a shorter slice is replaced by a fresh allocation.
func GEQRT[T vec.Scalar](m, n, ib int, a []T, lda int, t []T, ldt int, work []T) {
	k := min(m, n)
	if k == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, FactorWorkLen(m, n, ib))
	z, w, pack := work[:ib], work[ib:ib+ib*n], work[ib+ib*n:]
	for k0 := 0; k0 < k; k0 += ib {
		kb := min(ib, k-k0)
		geqrt2(m, a, lda, k0, kb, t, ldt, z, pack)
		if k0+kb < n {
			applyPanel(true, m, a, lda, k0, k0, kb, t, ldt, k0, a, lda, k0+kb, n-k0-kb, w, pack)
		}
	}
}

// UNMQR applies the orthogonal (unitary) factor of a GEQRT factorization to
// the m×nc tile c: C := Qᴴ·C if trans, else C := Q·C. v and t are the
// outputs of GEQRT on an m×· tile with k reflectors and inner block size
// ib. c may be a strided view (ldc > nc). work may be nil or a scratch slice
// of length ≥ ib·nc; length ≥ ApplyWorkLen(m, ib, nc) additionally enables
// the packed paths. Which form a call takes depends on nc alone:
// nc < vec.GemmMinCols runs the vector form (one column at a time along V's
// rows, ≈ 4·m·k flops per column, ib elements of work); wider C runs the
// block-reflector form, with every row of V, and T·W, on the packed
// micro-GEMM when the backend and the scratch allow.
func UNMQR[T vec.Scalar](trans bool, m, k, ib int, v []T, ldv int, t []T, ldt int,
	c []T, ldc, nc int, work []T) {
	if k == 0 || nc == 0 {
		return
	}
	ib = clampIB(ib, k)
	work = ensureWork(work, ib*nc)
	w, pack := work[:ib*nc], work[ib*nc:]
	if trans {
		for k0 := 0; k0 < k; k0 += ib {
			kb := min(ib, k-k0)
			applyPanel(true, m, v, ldv, k0, k0, kb, t, ldt, k0, c, ldc, 0, nc, w, pack)
		}
	} else {
		start := ((k - 1) / ib) * ib
		for k0 := start; k0 >= 0; k0 -= ib {
			kb := min(ib, k-k0)
			applyPanel(false, m, v, ldv, k0, k0, kb, t, ldt, k0, c, ldc, 0, nc, w, pack)
		}
	}
}

// WorkLen returns the scratch length the tile kernels need for square-ish
// tiles of at most n rows and columns at inner block size ib: one
// ib-vector of T-column products, the ib×n block-reflector workspace, the
// GEMM heads' operand copies (headLen) and packed micro-GEMM
// scratch covering every product the factor and update kernels form on
// such tiles (including the full n×n×n GEMM task). The pack region doubles
// as the factor kernels' column-contiguous panel copy and its rotated
// reflector ((ib+1)·n elements at most on such tiles, and idle while a
// panel is being factored). Kernels handed less scratch than this still
// run: the apply kernels lose only the packed paths, and GEQRT/TPQRT —
// which accept any m, n — allocate what their own shape needs
// (FactorWorkLen) when work is shorter than that.
func WorkLen(n, ib int) int {
	return ib*(n+1) + headLen(n, ib, n) + vec.GemmPackBound(n, n, n)
}

// FactorWorkLen returns the scratch GEQRT and TPQRT need to factor an m×n
// tile (B, for TPQRT) without allocating: WorkLen(n, ib), stretched when
// the tile is so much taller than wide that its ib-column panel copy and
// rotated reflector (at most (ib+1)·m elements) outgrow the pack region.
// It is monotone in each argument, so callers whose tiles are not
// square-ish — a stream's batch tiles, up to 2·nb rows tall over nb or
// fewer columns — size worker scratch from their largest tile shape with
// it; for m, ib ≤ n it is WorkLen(n, ib).
func FactorWorkLen(m, n, ib int) int {
	return max(WorkLen(n, ib), ib*(n+1)+(ib+1)*m)
}

// ApplyWorkLen returns the scratch length the Q-application kernels
// (UNMQR, TPMQRT and their wrappers) need to take the packed paths when
// applying a factorization with inner block ib to a C tile of at most m
// rows and nc columns. Any length ≥ ib·nc is accepted; the extra headroom
// here feeds the GEMM heads' operand copies and the micro-GEMM pack
// buffers.
func ApplyWorkLen(m, ib, nc int) int {
	return ib*nc + headLen(m, ib, nc) + max(vec.GemmPackBound(ib, nc, m), vec.GemmPackBound(m, nc, ib))
}

// TileWorkLen returns the scratch that covers every kernel, packed paths
// included, on tiles at most m rows tall and n columns wide (m ≥ n): the
// factor kernels' own need (FactorWorkLen) and the GEMM heads of an
// m-row reflector block applied across an n-wide tile (ApplyWorkLen),
// both of which WorkLen(n, ib) covers only for m = n. It is WorkLen(n, ib)
// at m = n. A worker handed WorkLen(n, ib) for taller tiles still computes
// the same result, but its applies fall back from the GEMM heads to the
// sweeps.
func TileWorkLen(m, n, ib int) int {
	return max(FactorWorkLen(m, n, ib), ApplyWorkLen(m, ib, n))
}

// clampIB normalizes the inner blocking factor to 1 ≤ ib ≤ k.
func clampIB(ib, k int) int {
	if ib <= 0 || ib > k {
		return k
	}
	return ib
}

// ensureWork returns work if it is large enough, otherwise a fresh slice.
func ensureWork[T vec.Scalar](work []T, n int) []T {
	if len(work) < n {
		return make([]T, n)
	}
	return work
}
