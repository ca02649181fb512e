package core

import "testing"

// TestBuildStreamDAGStructure checks the invariants of the streaming merge
// graph: resident rows are never factored or zeroed, every batch tile is
// zeroed exactly once per column, and task IDs stay topologically ordered.
func TestBuildStreamDAGStructure(t *testing.T) {
	for _, kern := range []Kernels{TT, TS} {
		for _, shape := range []struct{ q, pb int }{
			{1, 1}, {1, 5}, {3, 1}, {3, 2}, {4, 7}, {8, 3},
		} {
			q, pb := shape.q, shape.pb
			d := BuildStreamDAG(q, pb, kern, false)
			gers, zeroed := 0, make(map[[2]int]int)
			for id, task := range d.Tasks {
				for _, p := range d.Preds(id) {
					if p >= int32(id) {
						t.Fatalf("%v q=%d pb=%d: task %d has predecessor %d (not topological)", kern, q, pb, id, p)
					}
				}
				switch task.Kind {
				case KGEQRT:
					gers++
					if task.I <= q {
						t.Fatalf("%v q=%d pb=%d: GEQRT on resident row %d", kern, q, pb, task.I)
					}
				case KTSQRT, KTTQRT:
					if task.I <= q {
						t.Fatalf("%v q=%d pb=%d: resident row %d zeroed by %v", kern, q, pb, task.I, task)
					}
					zeroed[[2]int{task.I, task.K}]++
				}
				// Resident rows appear only as the pivot of column K — their
				// structurally zero sub-diagonal tiles are never referenced.
				if task.I <= q && task.I != task.K {
					t.Fatalf("%v q=%d pb=%d: task %v touches resident row %d outside column %d", kern, q, pb, task, task.I, task.I)
				}
				if task.Piv > 0 && task.Piv <= q && task.Piv != task.K {
					t.Fatalf("%v q=%d pb=%d: task %v pivots on resident row %d outside column %d", kern, q, pb, task, task.Piv, task.K)
				}
			}
			for k := 1; k <= q; k++ {
				for i := q + 1; i <= q+pb; i++ {
					if zeroed[[2]int{i, k}] != 1 {
						t.Fatalf("%v q=%d pb=%d: batch tile (%d,%d) zeroed %d times", kern, q, pb, i, k, zeroed[[2]int{i, k}])
					}
					if d.ZeroTask(i, k) < 0 {
						t.Fatalf("%v q=%d pb=%d: no zero task recorded for (%d,%d)", kern, q, pb, i, k)
					}
				}
			}
			if kern == TT && gers != pb*q {
				t.Fatalf("TT q=%d pb=%d: %d GEQRT tasks, want %d (every batch row in every column)", q, pb, gers, pb*q)
			}
		}
	}
}

// TestBuildStreamDAGWeight pins the merge cost: eliminating pb batch rows in
// column k costs pb·(GEQRT+TTQRT) = 6·pb units plus pb·(UNMQR+TTMQR) =
// 12·pb units per trailing column, in both kernel families — 2·r·n² flops
// per appended r-row batch, independent of rows ingested before.
func TestBuildStreamDAGWeight(t *testing.T) {
	for _, kern := range []Kernels{TT, TS} {
		for _, shape := range []struct{ q, pb int }{{1, 1}, {3, 2}, {5, 4}, {6, 1}} {
			q, pb := shape.q, shape.pb
			want := 0
			for k := 1; k <= q; k++ {
				want += pb * (6 + 12*(q-k))
			}
			if got := BuildStreamDAG(q, pb, kern, false).TotalWeight(); got != want {
				t.Fatalf("%v q=%d pb=%d: total weight %d, want %d", kern, q, pb, got, want)
			}
		}
	}
}

// TestBuildStreamDAGTriangular covers the triangle-on-triangle merge a
// sliding window re-reduces with: the incoming block is itself upper
// triangular, so its sub-diagonal tiles are never referenced, its diagonal
// tiles are never re-factored, every live tile is zeroed exactly once, and
// the whole merge weighs a third of a full q-row batch in both families.
func TestBuildStreamDAGTriangular(t *testing.T) {
	for _, kern := range []Kernels{TT, TS} {
		for _, q := range []int{1, 2, 4, 7} {
			d := BuildStreamDAG(q, q, kern, true)
			zeroed := make(map[[2]int]int)
			for id, task := range d.Tasks {
				for _, p := range d.Preds(id) {
					if p >= int32(id) {
						t.Fatalf("%v q=%d: task %d has predecessor %d (not topological)", kern, q, id, p)
					}
				}
				for _, ref := range [][2]int{{task.I, task.K}, {task.I, task.J}, {task.Piv, task.K}, {task.Piv, task.J}} {
					i, k := ref[0], ref[1]
					if i == 0 || k == 0 {
						continue
					}
					if i <= q && k < i || i > q && k < i-q {
						t.Fatalf("%v q=%d: %v references structurally zero tile (%d,%d)", kern, q, task, i, k)
					}
				}
				switch task.Kind {
				case KGEQRT:
					if task.I <= q || task.I-q == task.K {
						t.Fatalf("%v q=%d: %v re-factors a triangle", kern, q, task)
					}
				case KTSQRT, KTTQRT:
					if task.I <= q {
						t.Fatalf("%v q=%d: resident row zeroed by %v", kern, q, task)
					}
					zeroed[[2]int{task.I, task.K}]++
				}
			}
			want := 0
			for k := 1; k <= q; k++ {
				for i := 1; i <= k; i++ {
					if zeroed[[2]int{q + i, k}] != 1 {
						t.Fatalf("%v q=%d: block tile (%d,%d) zeroed %d times", kern, q, i, k, zeroed[[2]int{q + i, k}])
					}
				}
				want += (k-1)*(4+6*(q-k)) + k*(2+6*(q-k))
			}
			if len(zeroed) != q*(q+1)/2 {
				t.Fatalf("%v q=%d: %d tiles zeroed, want %d", kern, q, len(zeroed), q*(q+1)/2)
			}
			if got := d.TotalWeight(); got != want {
				t.Fatalf("%v q=%d: total weight %d, want %d", kern, q, got, want)
			}
		}
	}
	if got, full := BuildStreamDAG(4, 4, TT, true).TotalWeight(), BuildStreamDAG(4, 4, TT, false).TotalWeight(); got != 128 || full != 384 {
		t.Fatalf("q=4: triangular merge weighs %d of %d units, want 128 of 384", got, full)
	}
}
