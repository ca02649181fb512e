package core

import "fmt"

// BuildStreamDAG builds the kernel task graph that merges a freshly appended
// batch of pb tile rows into a resident q×q upper triangular tile matrix —
// the incremental step of communication-avoiding TSQR (Demmel et al.), built
// from the same Table 1 kernels as a one-shot factorization.
//
// Row indices in the returned tasks are 1-based over the stacked matrix
// [R; B]: rows 1..q are the resident triangle (pre-triangularized — the DAG
// never emits a GEQRT for them, and their structurally zero sub-diagonal
// tiles are never eliminated), rows q+1..q+pb are the batch tiles.
//
// Every column k = 1..q zeroes all pb batch tiles in that column: the batch
// rows are first reduced among themselves by a binary tree (the optimal
// shape for a single-column reduction, §3 of the paper) and the surviving
// row is eliminated against resident row k. In TT mode each batch tile is
// triangularized by GEQRT and merged with TTQRT, so a column costs the same
// flops as the TS chain (4+2 = 6 and 6+6 = 12 weight units) while exposing
// the tree's log₂(pb) parallel depth. In TS mode the first tree level
// eliminates full tiles with TSQRT against GEQRT-triangularized pivots;
// later levels and the final merge combine the surviving triangles with
// TTQRT — except a single-tile-row batch (pb = 1, never triangularized),
// which merges into the resident triangle with one TSQRT.
//
// Total weight is ~pb·(6 + 12(q−k)) units per column — 2·r·n² flops for an
// r-row batch, the cost of applying Householder QR to r appended rows —
// independent of how many rows were ingested before.
//
// With tri set the incoming block is itself a q×q upper triangular tile
// matrix (pb must equal q) — another stream's resident triangle, which is
// how a sliding window re-merges its reduction tree: batch tile (i,k) is
// structurally zero for k < i and never touched, the diagonal batch tiles
// are already triangles, and column k reduces only its k live batch rows.
// That is a third of a full pb = q merge (128 of 384 units at q = 4).
func BuildStreamDAG(q, pb int, kernels Kernels, tri bool) *DAG {
	if q < 1 || pb < 1 || tri && pb != q {
		panic(fmt.Sprintf("core: invalid stream merge shape q=%d pb=%d tri=%v", q, pb, tri))
	}
	b := newDAGBuilder(q+pb, q, kernels)
	// The resident rows are already triangular in every column; marking them
	// makes triangularize a no-op and routes their eliminations through the
	// triangle-on-triangle branch regardless of the kernel family.
	for i := 1; i <= q; i++ {
		for k := 1; k <= q; k++ {
			b.tri[b.idx(i, k)] = true
		}
		if tri {
			b.tri[b.idx(q+i, i)] = true
		}
	}
	alive := make([]int, 0, pb)
	next := make([]int, 0, pb)
	for k := 1; k <= q; k++ {
		live := pb
		if tri {
			live = k
		}
		alive = alive[:0]
		for i := 0; i < live; i++ {
			alive = append(alive, q+1+i)
		}
		// Binary-tree reduction among the batch rows of column k.
		for len(alive) > 1 {
			next = next[:0]
			for j := 0; j+1 < len(alive); j += 2 {
				b.elim(Elim{I: alive[j+1], Piv: alive[j], K: k}, kernels)
				next = append(next, alive[j])
			}
			if len(alive)%2 == 1 {
				next = append(next, alive[len(alive)-1])
			}
			alive = append(alive[:0], next...)
		}
		// Merge the survivor into the resident triangle.
		b.elim(Elim{I: alive[0], Piv: k, K: k}, kernels)
	}
	return b.d
}
