package core

import (
	"fmt"
	"slices"
	"testing"
)

// refStreamDAG is the triangle merge of BuildStreamDAG as it was before
// merges became elimination lists: a hand-written binary tree over the
// live block rows of each column whose survivor is merged into the
// resident row. It is kept as the reference the triangle merge list must
// reproduce task for task and edge for edge.
func refStreamDAG(q int, kernels Kernels) *DAG {
	b := newDAGBuilder(2*q, q, kernels)
	for i := 1; i <= q; i++ {
		for k := 1; k <= q; k++ {
			b.tri[b.idx(i, k)] = true
		}
		b.tri[b.idx(q+i, i)] = true
	}
	alive := make([]int, 0, q)
	next := make([]int, 0, q)
	for k := 1; k <= q; k++ {
		alive = alive[:0]
		for i := 0; i < k; i++ {
			alive = append(alive, q+1+i)
		}
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
		b.elim(Elim{I: alive[0], Piv: k, K: k}, kernels)
	}
	return b.d
}

// mergeShapes calls f for every kernel family and merge shape with
// q ≤ maxQ and pb ≤ maxPB, triangular blocks (pb = q) included.
func mergeShapes(maxQ, maxPB int, f func(what string, kern Kernels, q, pb int, tri bool)) {
	for _, kern := range []Kernels{TT, TS} {
		for q := 1; q <= maxQ; q++ {
			for pb := 1; pb <= maxPB; pb++ {
				for _, tri := range []bool{false, true} {
					if tri && pb != q {
						continue
					}
					f(fmt.Sprintf("%v q=%d pb=%d tri=%v", kern, q, pb, tri), kern, q, pb, tri)
				}
			}
		}
	}
}

// TestMergeBinaryTreeMatchesReference: the triangle merge list expands to
// exactly the DAG the hand-written binary reduction built — the same tasks
// in the same order with the same predecessors, zero tasks and first
// writes — so window and dist tree merges run unchanged.
func TestMergeBinaryTreeMatchesReference(t *testing.T) {
	mergeShapes(8, 8, func(what string, kern Kernels, q, pb int, tri bool) {
		if !tri {
			return
		}
		got, want := BuildStreamDAG(q, q, kern, true), refStreamDAG(q, kern)
		if !slices.Equal(got.Tasks, want.Tasks) {
			t.Fatalf("%s: tasks differ from the reference:\n got %v\nwant %v", what, got.Tasks, want.Tasks)
		}
		for id := range got.Tasks {
			if !slices.Equal(got.Preds(id), want.Preds(id)) || !slices.Equal(got.FirstWrites(id), want.FirstWrites(id)) {
				t.Fatalf("%s: task %v has preds %v, first writes %v; the reference %v, %v", what, got.Tasks[id],
					got.Preds(id), got.FirstWrites(id), want.Preds(id), want.FirstWrites(id))
			}
		}
		if !slices.Equal(got.zeroTask, want.zeroTask) {
			t.Fatalf("%s: zero tasks %v, the reference %v", what, got.zeroTask, want.zeroTask)
		}
	})
}

// checkMergeDAG checks the invariants of a merge graph: resident rows are
// never factored or zeroed and appear only as the pivot of their own
// column, every live batch tile is zeroed exactly once, a triangular
// block's structurally zero tiles are never referenced nor its diagonal
// triangles re-factored, and task IDs stay topologically ordered.
func checkMergeDAG(t *testing.T, what string, d *DAG, q, pb int, tri bool) {
	t.Helper()
	zeroed := make(map[[2]int]int)
	for id, task := range d.Tasks {
		for _, p := range d.Preds(id) {
			if p >= int32(id) {
				t.Fatalf("%s: task %d has predecessor %d (not topological)", what, id, p)
			}
		}
		for _, ref := range [][2]int{{task.I, task.K}, {task.I, task.J}, {task.Piv, task.K}, {task.Piv, task.J}} {
			i, k := ref[0], ref[1]
			if i == 0 || k == 0 {
				continue
			}
			if i <= q && k < i || tri && i > q && k < i-q {
				t.Fatalf("%s: %v references structurally zero tile (%d,%d)", what, task, i, k)
			}
		}
		switch task.Kind {
		case KGEQRT:
			if task.I <= q || tri && task.I-q == task.K {
				t.Fatalf("%s: %v re-factors a triangle", what, task)
			}
		case KTSQRT, KTTQRT:
			if task.I <= q {
				t.Fatalf("%s: resident row %d zeroed by %v", what, task.I, task)
			}
			zeroed[[2]int{task.I, task.K}]++
		}
		if task.I <= q && task.I != task.K {
			t.Fatalf("%s: %v touches resident row %d outside its column", what, task, task.I)
		}
		if task.Piv > 0 && task.Piv <= q && task.Piv != task.K {
			t.Fatalf("%s: %v pivots on resident row %d outside its column", what, task, task.Piv)
		}
	}
	for k := 1; k <= q; k++ {
		for i := 1; i <= pb; i++ {
			want := 1
			if tri && i > k {
				want = 0
			}
			if zeroed[[2]int{q + i, k}] != want {
				t.Fatalf("%s: batch tile (%d,%d) zeroed %d times, want %d", what, q+i, k, zeroed[[2]int{q + i, k}], want)
			}
			if want == 1 && d.ZeroTask(q+i, k) < 0 {
				t.Fatalf("%s: no zero task recorded for (%d,%d)", what, q+i, k)
			}
		}
	}
}

// TestBuildStreamDAGStructure checks the row-batch merge graphs of both
// families (checkMergeDAG); in TT mode every batch tile is triangularized
// by GEQRT in every column, in TS mode none is.
func TestBuildStreamDAGStructure(t *testing.T) {
	mergeShapes(5, 8, func(what string, kern Kernels, q, pb int, tri bool) {
		if tri {
			return
		}
		d := BuildStreamDAG(q, pb, kern, false)
		checkMergeDAG(t, what, d, q, pb, false)
		gers := 0
		for _, task := range d.Tasks {
			if task.Kind == KGEQRT {
				gers++
			}
		}
		if want := map[Kernels]int{TT: pb * q, TS: 0}[kern]; gers != want {
			t.Fatalf("%s: %d GEQRT tasks, want %d", what, gers, want)
		}
	})
}

// TestBuildStreamDAGWeight pins the row-batch merge cost in both families:
// each live batch tile of column k costs 6 + 12(q−k) units, so a row batch
// weighs pb·Σ(6 + 12(q−k)) — 2·r·n² flops per appended r-row batch,
// independent of rows ingested before.
func TestBuildStreamDAGWeight(t *testing.T) {
	mergeShapes(6, 9, func(what string, kern Kernels, q, pb int, tri bool) {
		if tri {
			return
		}
		want := 0
		for k := 1; k <= q; k++ {
			want += pb * (6 + 12*(q-k))
		}
		if got := BuildStreamDAG(q, pb, kern, false).TotalWeight(); got != want {
			t.Fatalf("%s: total weight %d, want %d", what, got, want)
		}
	})
}

// TestBuildStreamDAGTriangular covers the triangle-on-triangle merge a
// sliding window re-reduces with, in both families: the incoming
// block is itself upper triangular, so its sub-diagonal tiles are never
// referenced, its diagonal tiles are never re-factored, every live tile is
// zeroed exactly once (checkMergeDAG), and the whole merge weighs a third of
// a full q-row batch.
func TestBuildStreamDAGTriangular(t *testing.T) {
	mergeShapes(7, 7, func(what string, kern Kernels, q, pb int, tri bool) {
		if !tri {
			return
		}
		d := BuildStreamDAG(q, q, kern, true)
		checkMergeDAG(t, what, d, q, q, true)
		want := 0
		for k := 1; k <= q; k++ {
			want += (k-1)*(4+6*(q-k)) + k*(2+6*(q-k))
		}
		if got, full := d.TotalWeight(), BuildStreamDAG(q, q, kern, false).TotalWeight(); got != want || 3*got != full {
			t.Fatalf("%s: total weight %d of a full batch's %d, want %d, a third", what, got, full, want)
		}
	})
	if got := BuildStreamDAG(4, 4, TT, true).TotalWeight(); got != 128 {
		t.Fatalf("q=4: triangular merge weighs %d units, want 128", got)
	}
}

// criticalPath is the merge DAG's longest path in Table 1 weight units.
func criticalPath(d *DAG) int {
	fin, cp := make([]int, d.NumTasks()), 0
	for id := range fin {
		for _, p := range d.Preds(id) {
			fin[id] = max(fin[id], fin[p])
		}
		fin[id] += d.Tasks[id].Kind.Weight()
		cp = max(cp, fin[id])
	}
	return cp
}

// TestMergeCriticalPathGoldens pins the critical path (Table 1 units) of a
// row-batch merge on a (q, pb) grid, in both kernel families: the flat
// tree's path grows linearly in pb.
func TestMergeCriticalPathGoldens(t *testing.T) {
	pbs := []int{1, 2, 3, 4, 8, 9, 32}
	// golden[kern][q-1][x] is the path at pb = pbs[x].
	golden := map[Kernels][][]int{
		TT: {
			{6, 8, 10, 12, 20, 22, 68},
			{22, 28, 34, 40, 64, 70, 208},
			{38, 44, 50, 56, 80, 86, 224},
			{54, 60, 66, 72, 96, 102, 240},
		},
		TS: {
			{6, 12, 18, 24, 48, 54, 192},
			{24, 36, 48, 60, 108, 120, 396},
			{42, 54, 66, 78, 126, 138, 414},
			{60, 72, 84, 96, 144, 156, 432},
		},
	}
	for kern, byQ := range golden {
		for qi, row := range byQ {
			q := qi + 1
			for x, want := range row {
				pb := pbs[x]
				if got := criticalPath(BuildStreamDAG(q, pb, kern, false)); got != want {
					t.Errorf("%v q=%d pb=%d: critical path %d, want %d", kern, q, pb, got, want)
				}
			}
		}
	}
}
