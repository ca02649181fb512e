package core

import (
	"fmt"
	"testing"
)

// tileTouches returns the tiles task t reads or writes and, separately, the
// ones it writes, as tile indices (i−1)·q + (j−1).
func tileTouches(t Task, q int) (touch, write []int) {
	at := func(i, j int) int { return (i-1)*q + (j - 1) }
	switch t.Kind {
	case KGEQRT:
		write = []int{at(t.I, t.K)}
		return write, write
	case KUNMQR:
		return []int{at(t.I, t.K), at(t.I, t.J)}, []int{at(t.I, t.J)}
	case KTSQRT, KTTQRT:
		write = []int{at(t.Piv, t.K), at(t.I, t.K)}
		return write, write
	default:
		write = []int{at(t.Piv, t.J), at(t.I, t.J)}
		return append([]int{at(t.I, t.K)}, write...), write
	}
}

// checkFirstWrites asserts the invariant the engine's concurrent copy-in
// rests on: every tile a DAG touches has exactly one first writer, that
// task writes it, and every other task touching the tile descends from it
// through Preds. It returns the set of first-written tiles.
func checkFirstWrites(t *testing.T, what string, d *DAG) map[int]bool {
	t.Helper()
	n := d.NumTasks()
	words := (n + 63) / 64
	anc := make([]uint64, n*words) // anc[t] ⊇ every ancestor of t
	for id := 0; id < n; id++ {
		row := anc[id*words : (id+1)*words]
		for _, p := range d.Preds(id) {
			prow := anc[int(p)*words : (int(p)+1)*words]
			for w := range row {
				row[w] |= prow[w]
			}
			row[p/64] |= 1 << (p % 64)
		}
	}
	descends := func(t, a int) bool { return anc[t*words+a/64]&(1<<(a%64)) != 0 }

	first := make(map[int]int)
	for id := 0; id < n; id++ {
		_, write := tileTouches(d.Tasks[id], d.Q)
		for _, x := range d.FirstWrites(id) {
			if prev, dup := first[int(x)]; dup {
				t.Fatalf("%s: tile %d has two first writers, %v and %v", what, x, d.Tasks[prev], d.Tasks[id])
			}
			wrote := false
			for _, w := range write {
				wrote = wrote || w == int(x)
			}
			if !wrote {
				t.Fatalf("%s: %v first-writes tile %d, which it does not write", what, d.Tasks[id], x)
			}
			first[int(x)] = id
		}
	}
	for id := 0; id < n; id++ {
		touch, _ := tileTouches(d.Tasks[id], d.Q)
		for _, x := range touch {
			w, ok := first[x]
			if !ok {
				t.Fatalf("%s: tile (%d,%d), touched by %v, has no first writer", what, x/d.Q+1, x%d.Q+1, d.Tasks[id])
			}
			if w != id && !descends(id, w) {
				t.Fatalf("%s: %v touches tile (%d,%d) but does not descend from its first writer %v",
					what, d.Tasks[id], x/d.Q+1, x%d.Q+1, d.Tasks[w])
			}
		}
	}
	set := make(map[int]bool, len(first))
	for x := range first {
		set[x] = true
	}
	return set
}

// TestFirstWritesOneShot: for every algorithm and kernel family, on square,
// tall, wide, single-row and single-column grids, the first-writer
// invariant holds and every tile of the grid is first-written — so a
// copy-in driven by FirstWrites overwrites all of a reused arena.
func TestFirstWritesOneShot(t *testing.T) {
	algs := append(append([]Algorithm(nil), Algorithms...), Grasap, PlasmaTree, HadriTree)
	shapes := [][2]int{{1, 1}, {1, 4}, {5, 1}, {2, 5}, {3, 3}, {4, 3}, {7, 2}, {12, 4}}
	for _, alg := range algs {
		for _, kern := range []Kernels{TT, TS} {
			for _, s := range shapes {
				p, q := s[0], s[1]
				l, err := Generate(alg, p, q, Options{BS: 2, GrasapK: 1})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%v/%v %d×%d", alg, kern, p, q)
				got := checkFirstWrites(t, what, BuildDAG(l, kern))
				if len(got) != p*q {
					t.Fatalf("%s: %d of %d tiles first-written", what, len(got), p*q)
				}
			}
		}
	}
}

// TestFirstWritesStream: the merge DAGs of a stream, in both families, satisfy
// the same invariant, and every live batch tile — all of them for a row
// batch, the upper ones for a triangular block — is first-written, since
// the stream fills exactly those from the appended rows.
func TestFirstWritesStream(t *testing.T) {
	mergeShapes(5, 5, func(what string, kern Kernels, q, pb int, tri bool) {
		got := checkFirstWrites(t, what, BuildStreamDAG(q, pb, kern, tri))
		for i := 1; i <= pb; i++ {
			for k := 1; k <= q; k++ {
				live := !tri || k >= i
				if x := (q+i-1)*q + k - 1; got[x] != live {
					t.Fatalf("%s: batch tile (%d,%d) first-written = %v, want %v", what, q+i, k, got[x], live)
				}
			}
		}
	})
}
