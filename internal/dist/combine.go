// The R-combine step of the CAQR reduction tree: folding a partner
// shard's n×n upper-triangular R (and the top block of its Qᵀb) into the
// resident one with a single TTQRT/TTMQR pair — the same
// triangle-on-triangle kernels the in-process DAG uses, applied across
// process boundaries. All scratch is allocated once per run and reused
// every round and level, so the steady-state combine allocates nothing.
package dist

import (
	"tiledqr/internal/kernel"
	"tiledqr/internal/vec"
)

// reducer is one worker's resident combine state: its own R triangle and
// Qᵀb top block, plus the scratch a TTQRT/TTMQR pair needs (the partner's
// triangle, which TTQRT overwrites with the V₂ reflectors, the ib×n panel
// T factors, and kernel workspace).
type reducer[T vec.Scalar] struct {
	n, nrhs, ib int
	r           []T // resident n×n R, stride n (upper triangle live)
	qtb         []T // resident n×nrhs top of Qᵀb, stride nrhs
	partner     []T // partner's triangle; V₂ after TTQRT. stride n
	partnerQTB  []T // partner's Qᵀb top block, stride nrhs
	tf          []T // ib×n panel T factors, stride n
	work        []T
}

func newReducer[T vec.Scalar](n, nrhs, ib int) *reducer[T] {
	wsLen := kernel.WorkLen(n, ib)
	if nrhs > 0 {
		if a := kernel.ApplyWorkLen(n, ib, nrhs); a > wsLen {
			wsLen = a
		}
	}
	return &reducer[T]{
		n: n, nrhs: nrhs, ib: ib,
		r:          make([]T, n*n),
		qtb:        make([]T, n*max(nrhs, 1)),
		partner:    make([]T, n*n),
		partnerQTB: make([]T, n*max(nrhs, 1)),
		tf:         make([]T, ib*n),
		work:       make([]T, wsLen),
	}
}

// combine folds the partner state (already unpacked into rd.partner /
// rd.partnerQTB) into the resident R and Qᵀb: TTQRT annihilates the
// partner triangle against the resident one, then TTMQR replays the
// transformation on the stacked [qtb; partnerQTB] right-hand sides so the
// resident qtb stays the top block of Qᵀb for the combined row set.
func (rd *reducer[T]) combine() {
	n := rd.n
	kernel.TTQRT(n, n, rd.ib, rd.r, n, rd.partner, n, rd.tf, n, rd.work)
	if rd.nrhs > 0 {
		kernel.TTMQR(true, n, n, rd.ib, rd.partner, n, rd.tf, n,
			rd.qtb, rd.nrhs, rd.partnerQTB, rd.nrhs, rd.nrhs, rd.work)
	}
}

// packR frames the resident R triangle for the wire (pooled buffer).
func (rd *reducer[T]) packR(seq uint32) []byte {
	n := rd.n
	sz := scalarBytes[T]()
	f := &Frame{Kind: KindRTri, Prec: vec.Prec[T]().Tag()[0], Seq: seq, Rows: uint32(n), Cols: uint32(n)}
	return packFrame(f, TriLen(n)*sz, func(dst []byte) {
		PackTriangle(dst, rd.r, n, n)
	})
}

// packQTB frames the resident Qᵀb top block for the wire (pooled buffer).
func (rd *reducer[T]) packQTB(seq uint32) []byte {
	return packDense(KindQTB, seq, rd.qtb, rd.nrhs, rd.n, rd.nrhs)
}
