package sched

import (
	"sync/atomic"
	"testing"

	"tiledqr/internal/core"
)

// TestStealingStress runs many small DAGs of every shape class through the
// work-stealing runtime and asserts, for each, that every task ran exactly
// once, that live dependency order was respected, and that the recorded
// trace validates. Run under -race this doubles as the scheduler's memory
// model check.
func TestStealingStress(t *testing.T) {
	shapes := [][2]int{
		{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {5, 1}, {1, 5},
		{4, 4}, {6, 3}, {8, 2}, {10, 5}, {7, 7}, {12, 4},
	}
	algs := []func(p, q int) core.List{
		core.GreedyList, core.FlatTreeList, core.BinaryTreeList, core.FibonacciList,
	}
	for _, workers := range []int{2, 3, 4, 8} {
		for _, shape := range shapes {
			p, q := shape[0], shape[1]
			if q > p {
				continue
			}
			for ai, alg := range algs {
				d := core.BuildDAG(alg(p, q), core.TT)
				counts := make([]int32, d.NumTasks())
				ended := make([]atomic.Bool, d.NumTasks())
				var violations atomic.Int32
				tr, err := runDAG(d, workers, true, func(task int32, w int) {
					if w < 0 || w >= workers {
						panic("worker id out of range")
					}
					for _, pr := range d.Preds(int(task)) {
						if !ended[pr].Load() {
							violations.Add(1)
						}
					}
					atomic.AddInt32(&counts[task], 1)
					ended[task].Store(true)
				})
				if err != nil {
					t.Fatalf("alg %d %dx%d workers=%d: %v", ai, p, q, workers, err)
				}
				for task, c := range counts {
					if c != 1 {
						t.Fatalf("alg %d %dx%d workers=%d: task %d ran %d times", ai, p, q, workers, task, c)
					}
				}
				if v := violations.Load(); v != 0 {
					t.Fatalf("alg %d %dx%d workers=%d: %d dependency violations", ai, p, q, workers, v)
				}
				if err := tr.Validate(d); err != nil {
					t.Fatalf("alg %d %dx%d workers=%d: %v", ai, p, q, workers, err)
				}
			}
		}
	}
}

// TestSequentialDeterminism: Workers=1 must execute the identical task
// sequence on every run (the topological order), so single-threaded
// factorizations are bitwise reproducible.
func TestSequentialDeterminism(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(12, 6), core.TT)
	var first []int32
	for run := 0; run < 5; run++ {
		var order []int32
		if _, err := runDAG(d, 1, false, func(task int32, _ int) {
			order = append(order, task)
		}); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = order
			continue
		}
		if len(order) != len(first) {
			t.Fatalf("run %d executed %d tasks, first run %d", run, len(order), len(first))
		}
		for i := range order {
			if order[i] != first[i] {
				t.Fatalf("run %d diverged at step %d: task %d vs %d", run, i, order[i], first[i])
			}
		}
	}
}

// TestPriorities checks the b-level invariants: every task's priority
// exceeds each successor's by exactly its own weight along some maximal
// path, sinks carry their own weight, and the maximum equals the DAG's
// critical path in Table 1 units.
func TestPriorities(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(8, 4), core.TT)
	prio := Priorities(d)
	succOff, succs := d.Succs()
	var maxPrio int64
	for task := 0; task < d.NumTasks(); task++ {
		w := int64(d.Tasks[task].Kind.Weight())
		ss := succs[succOff[task]:succOff[task+1]]
		if len(ss) == 0 {
			if prio[task] != w {
				t.Fatalf("sink %v: priority %d, want own weight %d", d.Tasks[task], prio[task], w)
			}
		} else {
			var best int64
			for _, s := range ss {
				if prio[s] > best {
					best = prio[s]
				}
			}
			if prio[task] != best+w {
				t.Fatalf("task %v: priority %d, want %d", d.Tasks[task], prio[task], best+w)
			}
		}
		if prio[task] > maxPrio {
			maxPrio = prio[task]
		}
	}
	if maxPrio <= 0 {
		t.Fatal("no positive critical path")
	}
	// Factor kernels dominate their own update kernels: a GEQRT's priority
	// must exceed every UNMQR it feeds.
	for task, tk := range d.Tasks {
		if tk.Kind != core.KUNMQR {
			continue
		}
		for _, p := range d.Preds(task) {
			if d.Tasks[p].Kind == core.KGEQRT && prio[p] <= prio[task] {
				t.Fatalf("GEQRT %v priority %d not above its UNMQR %v (%d)",
					d.Tasks[p], prio[p], tk, prio[task])
			}
		}
	}
}

// TestRunManySmallDAGsSequentially exercises scheduler startup/shutdown
// cost paths repeatedly (the steady-state pattern of a service factoring
// many small matrices).
func TestRunManySmallDAGsSequentially(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(4, 2), core.TT)
	for i := 0; i < 200; i++ {
		ran := int32(0)
		if _, err := runDAG(d, 3, false, func(int32, int) {
			atomic.AddInt32(&ran, 1)
		}); err != nil {
			t.Fatal(err)
		}
		if int(ran) != d.NumTasks() {
			t.Fatalf("iteration %d: ran %d of %d tasks", i, ran, d.NumTasks())
		}
	}
}
