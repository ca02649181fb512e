package core

import "fmt"

// MergeList returns the elimination list that merges a block of pb tile
// rows into a resident q×q upper triangular tile matrix — the incremental
// step of communication-avoiding TSQR (Demmel et al.). Rows are 1-based
// over the stacked (q+pb)×q grid [R; B]. In column k only resident row k,
// the root, and the live block rows take part. The resident rows are never
// zeroed, so the list does not pass Validate. The list does not depend on
// tile heights: internal/stream stages a row batch in tile rows 2·nb tall,
// so there pb is ⌈r/(2·nb)⌉ for an r-row batch.
//
// A row batch (tri unset) merges along FlatTree: each batch tile is zeroed
// against the root. With tri set the block is itself a q×q upper
// triangular tile matrix (pb must equal q) — another aggregate's triangle,
// as a sliding window or a dist tree node merges them — so block tile
// (i,k) is structurally zero for k < i; it merges along BinaryTree,
// reducing the live block rows level by level and merging the survivor
// into the root.
func MergeList(q, pb int, tri bool) List {
	if q < 1 || pb < 1 || tri && pb != q {
		panic(fmt.Sprintf("core: invalid stream merge shape q=%d pb=%d tri=%v", q, pb, tri))
	}
	l := List{P: q + pb, Q: q}
	for k := 1; k <= q; k++ {
		if !tri {
			for i := q + 1; i <= q+pb; i++ {
				l.Elims = append(l.Elims, Elim{I: i, Piv: k, K: k})
			}
			continue
		}
		// Block row q+1+d is zeroed at the level where d ≡ step/2
		// (mod step), by the row step/2 above it.
		for step := 2; step/2 < k; step *= 2 {
			for d := step / 2; d < k; d += step {
				l.Elims = append(l.Elims, Elim{I: q + 1 + d, Piv: q + 1 + d - step/2, K: k})
			}
		}
		l.Elims = append(l.Elims, Elim{I: q + 1, Piv: k, K: k})
	}
	return l
}

// BuildStreamDAG expands MergeList(q, pb, tri) in the kernel family through
// BuildDAG's elim loop, with the resident rows (and, with tri, the diagonal
// block tiles) marked triangular, so they are never factored. In TS mode a
// block tile zeroed before it pivots is TSQRT'd straight into its pivot, so
// a row batch is all TSQRT and a triangle only on its first level.
// Weights count nb-row tiles. Whatever the family, a live block tile of
// column k costs 6 + 12(q−k) units: a row batch of pb nb-row tile rows
// pb·Σ(6 + 12(q−k)) — 2·r·n² flops for r rows, independent of the rows
// ingested before — and a triangular block a third of that. A stream's
// batch tile rows are 2·nb tall, so there each batch task does twice the
// flops its weight counts.
func BuildStreamDAG(q, pb int, kernels Kernels, tri bool) *DAG {
	list := MergeList(q, pb, tri)
	b := newDAGBuilder(q+pb, q, kernels)
	for i := 1; i <= q; i++ {
		for k := 1; k <= q; k++ {
			b.tri[b.idx(i, k)] = true
		}
		if tri {
			b.tri[b.idx(q+i, i)] = true
		}
	}
	for _, e := range list.Elims {
		b.elim(e, kernels)
	}
	return b.d
}
