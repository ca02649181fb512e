package vec

import "unsafe"

// Packed register-blocked micro-GEMM, the bulk engine behind the
// trailing-matrix update kernels. The drivers follow the classic BLIS
// decomposition scaled down to tile-sized operands (everything a kernel
// touches fits in L2 at the nb the autotuner picks, so a single packing
// level suffices):
//
//   - A is packed into row strips of mr (alpha folded in during the copy,
//     so the micro-kernel never sees a scale), zero-padded at the bottom
//     edge;
//   - in the real domains B is read in place: the micro-kernel takes B's
//     k-step stride, so every full nr-column strip is the operand as the
//     caller stores it, and only a ragged last strip is packed (k·nr
//     contiguous elements, zero-padded at the right edge);
//   - the mr×nr micro-kernel (simd_<arch>.s) keeps the C tile in vector
//     registers across the whole k loop — full tiles accumulate straight
//     into C, edge tiles into a zeroed mr×nr scratch whose valid region is
//     then added back, so the assembly never needs a partial-tile path.
//
// The complex domains run on the same real micro-kernels through the 1m
// method (Van Zee & Smith, "Implementing high-performance complex matrix
// multiplication via the 1m method"). C, stored as interleaved (re, im)
// pairs, is read as a real m×2n matrix at stride 2·ldc; A is packed as a
// real m×2k matrix whose k-step l becomes the two real steps re and im of
// α·op(A)[i,l]; B is expanded into a real 2k×2n panel whose rows 2l and
// 2l+1 are B's row l as (re, im) pairs and i·B's row l, i.e. (−im, re),
// packed in strips of nr like a ragged real strip. One real product then
// performs exactly the complex product's 8·m·n·k flops with no padding
// waste, and the four domains differ only in how they pack.
//
// Pack scratch is caller-owned (the kernels carve it out of the per-worker
// workspace, see kernel.WorkLen) and sized by GemmPackLen. The drivers
// cover the two shapes the QR updates need: C += α·A·B (GemmNN) and
// C += α·Aᴴ·B (GemmTN, A stored k×m; Aᵀ in the real domains). Callers
// must keep their generic loops as the fallback for the reasons a call can
// decline: backend off, C narrower than GemmMinCols, short scratch — never
// size alone (see GemmMinCols).

// Micro-tile shapes. float64: 4×8 (8 ymm / 16 NEON q accumulators);
// float32: 4×16 (same register budget at twice the lane count). The complex
// domains use their component type's tile, nr counted in reals.
const (
	gemmMR   = 4
	gemmNR64 = 8
	gemmNR32 = 16
)

// GemmMinCols is the narrowest C the packed path accepts. The Q-application
// kernels share it as the width below which they drop the block-reflector
// sweeps along C's rows for the vector form along V's rows (GemvTc /
// GemvNSub), so the two regimes meet at one constant. A C of 4 to 7
// columns leaves part of every float64 micro-tile empty and still applies
// a panel in about half the sweeps' time. The packed form reads slower
// only on a panel whose V is its 8×8 unit triangle alone (UNMQR's last
// panel, TTQRT's and TTMQR's first at ib = 8), and there only in float64,
// float32 and complex128 at C widths that are no multiple of 8: by a
// median 2–15 % of about a microsecond, too little for a rule of its own.
const GemmMinCols = gemmMR

func roundUpTo(v, q int) int { return (v + q - 1) / q * q }

// gemmTile returns T's micro-tile width nr, in reals, and the number of
// reals per element of T (1 real, 2 complex).
func gemmTile[T Scalar]() (nr, parts int) {
	switch any(x0[T]()).(type) {
	case float64:
		return gemmNR64, 1
	case float32:
		return gemmNR32, 1
	case complex128:
		return gemmNR64, 2
	}
	return gemmNR32, 2
}

// GemmPackLen returns the scratch length (in elements of T) GemmNN/GemmTN
// need for an m×n×k product: A in mr-row strips, the packed part of B and
// one edge tile. In the real domains B is read in place but for a ragged
// last strip, so B takes k·nr elements; the complex domains hold the 1m
// expansion, so B takes k·roundUp(2n, nr) elements and the edge tile
// mr·nr/2. It is monotone in each dimension, so sizing for upper bounds
// covers every smaller call.
func GemmPackLen[T Scalar](m, n, k int) int {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	nr, parts := gemmTile[T]()
	bLen := k * nr // a ragged last strip; the full strips are read in place
	if parts == 2 {
		bLen = k * roundUpTo(2*n, nr) // the whole 1m expansion
	}
	return roundUpTo(m, gemmMR)*k + bLen + gemmMR*nr/parts
}

// GemmPackBound bounds GemmPackLen over all domains for any product whose
// dimensions are at most maxM×maxN×maxK: the complex B panel, 2n reals
// padded to the wider float32 tile, is the largest B, and the float32 edge
// tile the largest tile. It is monotone in each argument, so workspace
// sized from upper bounds (kernel.WorkLen does this) covers every smaller
// call in every T without being generic itself.
func GemmPackBound(maxM, maxN, maxK int) int {
	if maxM <= 0 || maxN <= 0 || maxK <= 0 {
		return 0
	}
	return roundUpTo(maxM, gemmMR)*maxK + maxK*roundUpTo(2*maxN, gemmNR32) + gemmMR*gemmNR32
}

// GemmOK reports whether a GemmNN/GemmTN call of shape m×n×k with packLen
// elements of scratch will take the packed path (nonzero alpha assumed).
// Callers that choose between a packed form and a scalar one consult this
// first so they can commit to one before touching any data.
func GemmOK[T Scalar](m, n, k, packLen int) bool {
	if m <= 0 || n <= 0 || k <= 0 {
		return false
	}
	if !simdEnabled.Load() || n < GemmMinCols {
		return false
	}
	return packLen >= GemmPackLen[T](m, n, k)
}

func x0[T Scalar]() T { var z T; return z }

// GemmNN computes c[i,j] += α · Σ_l a[i,l]·b[l,j] for an m×n C (stride
// ldc), m×k A (stride lda) and k×n B (stride ldb), using the packed SIMD
// path. It reports whether it handled the product; on false the caller
// must run its generic fallback. A true return with m, n or k ≤ 0 means
// "nothing to do". C must not alias A or B.
func GemmNN[T Scalar](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int, pack []T) bool {
	return gemmDispatch(m, n, k, alpha, a, lda, false, b, ldb, c, ldc, pack)
}

// GemmTN is GemmNN with A stored transposed and conjugated: A is k×m with
// stride lda and c[i,j] += α · Σ_l conj(a[l,i])·b[l,j] (the conjugation is
// the identity in the real domains). This is the W := VᴴC shape of the
// block-reflector updates, where V's rows are contiguous.
func GemmTN[T Scalar](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int, pack []T) bool {
	return gemmDispatch(m, n, k, alpha, a, lda, true, b, ldb, c, ldc, pack)
}

func gemmDispatch[T Scalar](m, n, k int, alpha T, a []T, lda int, transA bool, b []T, ldb int, c []T, ldc int, pack []T) bool {
	if m <= 0 || n <= 0 || k <= 0 {
		return true
	}
	if alpha == 0 || !GemmOK[T](m, n, k, len(pack)) {
		return false
	}
	gemmPacked(m, n, k, alpha, a, lda, transA, b, ldb, c, ldc, pack)
	return true
}

// gemmPacked runs the packed product past every gate (m, n, k ≥ 1 and
// len(pack) ≥ GemmPackLen assumed), on the micro-kernel of T's component
// type.
func gemmPacked[T Scalar](m, n, k int, alpha T, a []T, lda int, transA bool, b []T, ldb int, c []T, ldc int, pack []T) {
	ar, ai := RealPart(alpha), ImagPart(alpha)
	nr, parts := gemmTile[T]()
	switch any(alpha).(type) {
	case float64, complex128:
		gemm(gemmKerF64, nr, parts, m, n, k, ar, ai, realView[float64](a), lda, transA,
			realView[float64](b), ldb, realView[float64](c), ldc, realView[float64](pack))
	default:
		gemm(gemmKerF32, nr, parts, m, n, k, float32(ar), float32(ai), realView[float32](a), lda, transA,
			realView[float32](b), ldb, realView[float32](c), ldc, realView[float32](pack))
	}
}

// realView reinterprets x as its real components: the same elements for the
// real domains, the interleaved (re, im) pairs — twice as many — for the
// complex ones. F must be T's component type.
func realView[F float32 | float64, T Scalar](x []T) []F {
	var z T
	var f F
	return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*int(unsafe.Sizeof(z)/unsafe.Sizeof(f)))
}

// gemm is the one packed driver, over the real views of its operands:
// parts = 2 marks complex data, whose strides still count complex elements
// and which is packed in the 1m layout. ker is the real mr×nr micro-kernel,
// reading B's k steps ldb reals apart. The real product it runs is
// m×(parts·n)×(parts·k).
func gemm[F float32 | float64](ker func(k int, a, b *F, ldb int, c *F, ldc int), nr, parts int,
	m, n, k int, ar, ai F, a []F, lda int, transA bool, b []F, ldb int, c []F, ldc int, pack []F) {
	const mr = gemmMR
	nR, kR := parts*n, parts*k
	mp := roundUpTo(m, mr)
	ap := pack[:mp*kR]
	// bp holds the strips B is not read in place for: the 1m expansion of
	// all of B in the complex domains, the ragged last strip (if any) in
	// the real ones. Either way its strips step nr reals per k step.
	bp := pack[mp*kR:]
	full := 0 // columns 0:full of the real view of B are read in place
	if parts == 1 {
		full = n / nr * nr
		if full < n {
			packB(b[full:], ldb, n-full, k, nr, bp)
		}
		packA(ar, a, lda, transA, m, k, ap)
		bp = bp[:k*nr]
	} else {
		bp = bp[:kR*roundUpTo(nR, nr)]
		packB1m(b, ldb, n, k, nr, bp)
		packA1m(ar, ai, a, lda, transA, m, k, ap)
	}
	tmp := pack[mp*kR+len(bp) : mp*kR+len(bp)+mr*nr]
	if full > 0 {
		// The last element the last in-place strip reads, the furthest of
		// any strip's: checked here so that the assembly never runs off B.
		_ = b[(k-1)*ldb+full-1]
	}

	ldc *= parts
	for i0 := 0; i0 < m; i0 += mr {
		h := min(mr, m-i0)
		as := ap[i0*kR:] // strip i0/mr
		for j0 := 0; j0 < nR; j0 += nr {
			w := min(nr, nR-j0)
			var bs *F
			ldbs := ldb
			if j0 < full {
				bs = &b[j0]
			} else {
				bs, ldbs = &bp[(j0-full)*kR], nr // strip (j0−full)/nr of bp
			}
			if h == mr && w == nr {
				ker(kR, &as[0], bs, ldbs, &c[i0*ldc+j0], ldc)
				continue
			}
			clear(tmp)
			ker(kR, &as[0], bs, ldbs, &tmp[0], nr)
			for r := 0; r < h; r++ {
				crow := c[(i0+r)*ldc+j0 : (i0+r)*ldc+j0+w]
				for j, v := range tmp[r*nr : r*nr+w] {
					crow[j] += v
				}
			}
		}
	}
}

// packB copies the ragged last strip of a real B, its k×w columns
// (w < nr), into bp as k steps of nr, zero-padded at the right.
func packB[F float32 | float64](b []F, ldb, w, k, nr int, bp []F) {
	for l := 0; l < k; l++ {
		copy(bp[l*nr:l*nr+w], b[l*ldb:l*ldb+w])
		clear(bp[l*nr+w : (l+1)*nr])
	}
}

// packB1m packs a complex B held as (re, im) pairs, expanded to the real
// 2k×2n panel, into nr-column strips of 2k steps, zero-padding the last:
// row 2l is B's row l as it is stored, row 2l+1 is i·B's, (re, im) →
// (−im, re). Strips start at even reals, so no pair straddles two. Each
// pair is read once and written to both rows in one pass.
func packB1m[F float32 | float64](b []F, ldb, n, k, nr int, bp []F) {
	idx := 0
	for j0 := 0; j0 < 2*n; j0 += nr {
		w := min(nr, 2*n-j0)
		for l := 0; l < k; l++ {
			row := b[2*l*ldb+j0 : 2*l*ldb+j0+w]
			dst, rot := bp[idx:idx+w], bp[idx+nr:idx+nr+w]
			for j := 0; j+1 < len(row); j += 2 {
				re, im := row[j], row[j+1]
				dst[j], dst[j+1] = re, im
				rot[j], rot[j+1] = -im, re
			}
			if w < nr {
				clear(bp[idx+w : idx+nr])
				clear(bp[idx+nr+w : idx+2*nr])
			}
			idx += 2 * nr
		}
	}
}

// packA copies α·op(A) into ap as mr-row strips of k steps, mr values per
// step, zero-padding the last strip: op(A)[i,l] is a[i·lda+l], or
// a[l·lda+i] with transA. Full strips take an unrolled copy — at tile
// sizes A is packed once per product, and the per-element index
// arithmetic of the general loop costs a third of the micro-kernel's time.
func packA[F float32 | float64](alpha F, a []F, lda int, transA bool, m, k int, ap []F) {
	full := m / gemmMR * gemmMR
	for i0 := 0; i0 < full; i0 += gemmMR {
		dst := ap[i0*k : (i0+gemmMR)*k]
		if transA {
			for l := 0; l < k; l++ {
				s := a[l*lda+i0 : l*lda+i0+4 : l*lda+i0+4]
				d := dst[4*l : 4*l+4 : 4*l+4]
				d[0], d[1], d[2], d[3] = alpha*s[0], alpha*s[1], alpha*s[2], alpha*s[3]
			}
			continue
		}
		r0 := a[i0*lda : i0*lda+k]
		r1 := a[(i0+1)*lda : (i0+1)*lda+k]
		r2 := a[(i0+2)*lda : (i0+2)*lda+k]
		r3 := a[(i0+3)*lda : (i0+3)*lda+k]
		for l, v := range r0 {
			d := dst[4*l : 4*l+4 : 4*l+4]
			d[0], d[1], d[2], d[3] = alpha*v, alpha*r1[l], alpha*r2[l], alpha*r3[l]
		}
	}
	if full == m {
		return
	}
	h, idx := m-full, full*k
	for l := 0; l < k; l++ {
		for r := 0; r < h; r++ {
			if transA {
				ap[idx+r] = alpha * a[l*lda+full+r]
			} else {
				ap[idx+r] = alpha * a[(full+r)*lda+l]
			}
		}
		clear(ap[idx+h : idx+gemmMR])
		idx += gemmMR
	}
}

// packA1m is packA for a complex A held as (re, im) pairs: step l of a strip
// becomes two real steps, the real and then the imaginary parts of
// α·op(A)[i,l], where op(A)[i,l] = conj(a[l,i]) with transA. The operand's
// layout is decided once per strip, not per element.
func packA1m[F float32 | float64](ar, ai F, a []F, lda int, transA bool, m, k int, ap []F) {
	idx := 0
	for i0 := 0; i0 < m; i0 += gemmMR {
		h := min(gemmMR, m-i0)
		for l := 0; l < k; l++ {
			re, im := ap[idx:idx+gemmMR:idx+gemmMR], ap[idx+gemmMR:idx+2*gemmMR:idx+2*gemmMR]
			if transA {
				// The strip's h elements of op(A) at step l are contiguous.
				x := a[2*(l*lda+i0) : 2*(l*lda+i0+h)]
				for r := 0; r < h; r++ {
					xr, xi := x[2*r], -x[2*r+1]
					re[r], im[r] = ar*xr-ai*xi, ar*xi+ai*xr
				}
			} else {
				for r := 0; r < h; r++ {
					o := 2 * ((i0+r)*lda + l)
					xr, xi := a[o], a[o+1]
					re[r], im[r] = ar*xr-ai*xi, ar*xi+ai*xr
				}
			}
			for r := h; r < gemmMR; r++ {
				re[r], im[r] = 0, 0
			}
			idx += 2 * gemmMR
		}
	}
}
