package vec

// Packed register-blocked micro-GEMM, the bulk engine behind the
// trailing-matrix update kernels. The drivers follow the classic BLIS
// decomposition scaled down to tile-sized operands (everything a kernel
// touches fits in L2 at the nb the autotuner picks, so a single packing
// level suffices):
//
//   - B is packed into column strips of nr, each strip k·nr contiguous
//     elements, zero-padded at the right edge;
//   - A is packed into row strips of mr (alpha folded in during the copy,
//     so the micro-kernel never sees a scale), zero-padded at the bottom
//     edge;
//   - the mr×nr micro-kernel (simd_<arch>.s) keeps the C tile in vector
//     registers across the whole k loop — full tiles accumulate straight
//     into C, edge tiles into a zeroed mr×nr scratch whose valid region is
//     then added back, so the assembly never needs a partial-tile path.
//
// Pack scratch is caller-owned (the kernels carve it out of the per-worker
// workspace, see kernel.WorkLen) and sized by GemmPackLen. The drivers
// cover the two shapes the QR updates need: C += α·A·B (GemmNN) and
// C += α·Aᵀ·B (GemmTN, A stored k×m). Complex domains are not handled
// here — their conjugation structure doesn't map onto the real micro-
// kernel — and callers must keep their generic loops as the fallback for
// the many reasons a call can decline: backend off, complex T, degenerate
// or too-small shape, short scratch.

// Micro-tile shapes. float64: 4×8 (8 ymm / 16 NEON q accumulators);
// float32: 4×16 (same register budget at twice the lane count).
const (
	gemmMR   = 4
	gemmNR64 = 8
	gemmNR32 = 16
)

// gemmMinWork gates dispatch by m·n·k: below this the packing pass costs
// more than the vector win. The bound also rejects degenerate shapes, and
// skinny-C calls (n < GemmMinCols) are declined separately — a 1-column
// "GEMM" would waste 7/8 of every micro-tile on padding.
const gemmMinWork = 4096

// GemmMinCols is the narrowest C the packed path accepts. The Q-application
// kernels share it as the width below which they drop the block-reflector
// sweeps along C's rows for the vector form along V's rows (GemvTc /
// GemvNSub), so the two regimes meet at one constant.
const GemmMinCols = gemmMR

func roundUpTo(v, q int) int { return (v + q - 1) / q * q }

// GemmPackLen returns the scratch length (in elements of T) GemmNN/GemmTN
// need for an m×n×k product, or 0 for domains the packed path never
// serves. It is monotone in each dimension, so sizing for upper bounds
// covers every smaller call.
func GemmPackLen[T Scalar](m, n, k int) int {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	switch any(x0[T]()).(type) {
	case float64:
		return roundUpTo(m, gemmMR)*k + k*roundUpTo(n, gemmNR64) + gemmMR*gemmNR64
	case float32:
		return roundUpTo(m, gemmMR)*k + k*roundUpTo(n, gemmNR32) + gemmMR*gemmNR32
	}
	return 0
}

// GemmPackBound bounds GemmPackLen over all domains for any product whose
// dimensions are at most maxM×maxN×maxK (the float32 tile shape is the
// wider one). It is monotone in each argument, so workspace sized from
// upper bounds (kernel.WorkLen does this) covers every smaller call in
// every T without being generic itself.
func GemmPackBound(maxM, maxN, maxK int) int {
	if maxM <= 0 || maxN <= 0 || maxK <= 0 {
		return 0
	}
	return roundUpTo(maxM, gemmMR)*maxK + maxK*roundUpTo(maxN, gemmNR32) + gemmMR*gemmNR32
}

// GemmOK reports whether a GemmNN/GemmTN call of shape m×n×k with packLen
// elements of scratch will take the packed path (nonzero alpha assumed).
// Callers that split a computation into a packed bulk part and a scalar
// remainder consult this first so they can commit to one split before
// touching any data.
func GemmOK[T Scalar](m, n, k, packLen int) bool {
	if m <= 0 || n <= 0 || k <= 0 {
		return false
	}
	if !simdEnabled.Load() || n < GemmMinCols || m*n*k < gemmMinWork {
		return false
	}
	pl := GemmPackLen[T](m, n, k)
	return pl > 0 && packLen >= pl
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

// GemmTN is GemmNN with A stored transposed: A is k×m with stride lda and
// c[i,j] += α · Σ_l a[l,i]·b[l,j]. This is the W := VᵀC shape of the
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
	switch as := any(a).(type) {
	case []float64:
		gemmF64(m, n, k, any(alpha).(float64), as, lda, transA,
			any(b).([]float64), ldb, any(c).([]float64), ldc, any(pack).([]float64))
		return true
	case []float32:
		gemmF32(m, n, k, any(alpha).(float32), as, lda, transA,
			any(b).([]float32), ldb, any(c).([]float32), ldc, any(pack).([]float32))
		return true
	}
	return false
}

// gemmF64 and gemmF32 are deliberate near-twins: the micro-kernel
// signatures are monomorphic (base pointers), so sharing the driver
// generically would force unsafe pointer plumbing for no reader benefit.

func gemmF64(m, n, k int, alpha float64, a []float64, lda int, transA bool, b []float64, ldb int, c []float64, ldc int, pack []float64) {
	const mr, nr = gemmMR, gemmNR64
	mp, np := roundUpTo(m, mr), roundUpTo(n, nr)
	ap := pack[:mp*k]
	bp := pack[mp*k : mp*k+k*np]
	tmp := pack[mp*k+k*np : mp*k+k*np+mr*nr]

	idx := 0
	for j0 := 0; j0 < n; j0 += nr {
		w := min(nr, n-j0)
		for l := 0; l < k; l++ {
			row := b[l*ldb+j0 : l*ldb+j0+w]
			copy(bp[idx:idx+w], row)
			for j := w; j < nr; j++ {
				bp[idx+j] = 0
			}
			idx += nr
		}
	}
	idx = 0
	for i0 := 0; i0 < m; i0 += mr {
		h := min(mr, m-i0)
		if transA {
			for l := 0; l < k; l++ {
				row := a[l*lda+i0 : l*lda+i0+h]
				for r := 0; r < h; r++ {
					ap[idx+r] = alpha * row[r]
				}
				for r := h; r < mr; r++ {
					ap[idx+r] = 0
				}
				idx += mr
			}
		} else {
			for l := 0; l < k; l++ {
				for r := 0; r < h; r++ {
					ap[idx+r] = alpha * a[(i0+r)*lda+l]
				}
				for r := h; r < mr; r++ {
					ap[idx+r] = 0
				}
				idx += mr
			}
		}
	}

	for i0 := 0; i0 < m; i0 += mr {
		h := min(mr, m-i0)
		as := ap[(i0/mr)*mr*k:]
		for j0 := 0; j0 < n; j0 += nr {
			w := min(nr, n-j0)
			bs := bp[(j0/nr)*nr*k:]
			if h == mr && w == nr {
				gemmKerF64(k, &as[0], &bs[0], &c[i0*ldc+j0], ldc)
				continue
			}
			clear(tmp)
			gemmKerF64(k, &as[0], &bs[0], &tmp[0], nr)
			for r := 0; r < h; r++ {
				crow := c[(i0+r)*ldc+j0 : (i0+r)*ldc+j0+w]
				trow := tmp[r*nr : r*nr+w]
				for j := range crow {
					crow[j] += trow[j]
				}
			}
		}
	}
}

func gemmF32(m, n, k int, alpha float32, a []float32, lda int, transA bool, b []float32, ldb int, c []float32, ldc int, pack []float32) {
	const mr, nr = gemmMR, gemmNR32
	mp, np := roundUpTo(m, mr), roundUpTo(n, nr)
	ap := pack[:mp*k]
	bp := pack[mp*k : mp*k+k*np]
	tmp := pack[mp*k+k*np : mp*k+k*np+mr*nr]

	idx := 0
	for j0 := 0; j0 < n; j0 += nr {
		w := min(nr, n-j0)
		for l := 0; l < k; l++ {
			row := b[l*ldb+j0 : l*ldb+j0+w]
			copy(bp[idx:idx+w], row)
			for j := w; j < nr; j++ {
				bp[idx+j] = 0
			}
			idx += nr
		}
	}
	idx = 0
	for i0 := 0; i0 < m; i0 += mr {
		h := min(mr, m-i0)
		if transA {
			for l := 0; l < k; l++ {
				row := a[l*lda+i0 : l*lda+i0+h]
				for r := 0; r < h; r++ {
					ap[idx+r] = alpha * row[r]
				}
				for r := h; r < mr; r++ {
					ap[idx+r] = 0
				}
				idx += mr
			}
		} else {
			for l := 0; l < k; l++ {
				for r := 0; r < h; r++ {
					ap[idx+r] = alpha * a[(i0+r)*lda+l]
				}
				for r := h; r < mr; r++ {
					ap[idx+r] = 0
				}
				idx += mr
			}
		}
	}

	for i0 := 0; i0 < m; i0 += mr {
		h := min(mr, m-i0)
		as := ap[(i0/mr)*mr*k:]
		for j0 := 0; j0 < n; j0 += nr {
			w := min(nr, n-j0)
			bs := bp[(j0/nr)*nr*k:]
			if h == mr && w == nr {
				gemmKerF32(k, &as[0], &bs[0], &c[i0*ldc+j0], ldc)
				continue
			}
			clear(tmp)
			gemmKerF32(k, &as[0], &bs[0], &tmp[0], nr)
			for r := 0; r < h; r++ {
				crow := c[(i0+r)*ldc+j0 : (i0+r)*ldc+j0+w]
				trow := tmp[r*nr : r*nr+w]
				for j := range crow {
					crow[j] += trow[j]
				}
			}
		}
	}
}
