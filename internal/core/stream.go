package core

import "fmt"

// MergeAlgorithms are the trees MergeList builds.
var MergeAlgorithms = []Algorithm{FlatTree, BinaryTree}

// MergeList returns the elimination list that merges a batch of pb tile
// rows into a resident q×q upper triangular tile matrix — the incremental
// step of communication-avoiding TSQR (Demmel et al.) — along one of the
// trees of MergeAlgorithms. Rows are 1-based over the stacked (q+pb)×q grid
// [R; B]. In column k only resident row k, the root, and the live batch
// rows take part: FlatTree zeroes each batch tile against the root,
// BinaryTree reduces the batch rows level by level and merges the survivor
// into the root. The resident rows are never zeroed, so the list does not
// pass Validate.
//
// With tri set the batch is itself a q×q upper triangular tile matrix (pb
// must equal q) — another aggregate's triangle, as a sliding window
// re-merges them — so batch tile (i,k) is structurally zero for k < i.
func MergeList(alg Algorithm, q, pb int, tri bool) List {
	if q < 1 || pb < 1 || tri && pb != q {
		panic(fmt.Sprintf("core: invalid stream merge shape q=%d pb=%d tri=%v", q, pb, tri))
	}
	l := List{P: q + pb, Q: q}
	for k := 1; k <= q; k++ {
		live := pb
		if tri {
			live = k
		}
		switch alg {
		case FlatTree:
			for i := q + 1; i <= q+live; i++ {
				l.Elims = append(l.Elims, Elim{I: i, Piv: k, K: k})
			}
		case BinaryTree:
			// Batch row q+1+d is zeroed at the level where d ≡ step/2
			// (mod step), by the row step/2 above it.
			for step := 2; step/2 < live; step *= 2 {
				for d := step / 2; d < live; d += step {
					l.Elims = append(l.Elims, Elim{I: q + 1 + d, Piv: q + 1 + d - step/2, K: k})
				}
			}
			l.Elims = append(l.Elims, Elim{I: q + 1, Piv: k, K: k})
		default:
			panic(fmt.Sprintf("core: no stream merge list for %v", alg))
		}
	}
	return l
}

// BuildStreamDAG expands MergeList(alg, q, pb, tri) in the kernel family
// through BuildDAG's elim loop, with the resident rows (and, with tri, the
// diagonal batch tiles) marked triangular, so they are never factored. In
// TS mode a batch tile zeroed before it pivots is TSQRT'd straight into its
// pivot, so FlatTree is all TSQRT and BinaryTree only on its first level.
// Whatever the tree and family, a live batch tile of column k costs
// 6 + 12(q−k) weight units: a row batch pb·Σ(6 + 12(q−k)) — 2·r·n² flops
// for r rows, independent of the rows ingested before — and a triangular
// block a third of that.
func BuildStreamDAG(q, pb int, alg Algorithm, kernels Kernels, tri bool) *DAG {
	list := MergeList(alg, q, pb, tri)
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
