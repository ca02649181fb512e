package sched

import (
	"testing"
	"time"

	"tiledqr/internal/core"
)

// TestSerialPlan: NewPlan marks a DAG Serial exactly when every task
// t > 0 depends on t − 1. A merge into a one-tile triangle (q = 1) is a
// chain at any batch height — each TSQRT rewrites the one root tile — while
// a two-tile-row batch into a q = 2 triangle is not: its second TSQRT
// waits on the first but not on the TSMQR between them.
func TestSerialPlan(t *testing.T) {
	cases := []struct {
		name string
		d    *core.DAG
		want bool
	}{
		{"empty", &core.DAG{}, true},
		{"one task", core.BuildDAG(core.FlatTreeList(1, 1), core.TT), true},
		{"chain", core.BuildDAG(core.FlatTreeList(4, 1), core.TS), true},
		// GEQRT(1,1) → {UNMQR(1,1,2), TSQRT(2,1)} → TSMQR(2,1,2).
		{"diamond", core.BuildDAG(core.FlatTreeList(2, 2), core.TS), false},
		{"q=2 merge of 2 tile rows", core.BuildStreamDAG(2, 2, core.TS, false), false},
	}
	for _, tc := range cases {
		if got := NewPlan(tc.d).Serial(); got != tc.want {
			t.Errorf("%s (%d tasks): Serial() = %v, want %v", tc.name, tc.d.NumTasks(), got, tc.want)
		}
	}
	for _, pb := range []int{1, 2, 7, 40} {
		if !NewPlan(core.BuildStreamDAG(1, pb, core.TS, false)).Serial() {
			t.Errorf("q=1 merge of %d tile rows: not Serial", pb)
		}
	}
}

// TestSerialRunsInline: Exec runs a Serial plan on the submitting
// goroutine. With the runtime's only worker held inside another job, a
// chain still completes; the held job then finishes normally.
func TestSerialRunsInline(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	held, release := make(chan struct{}), make(chan struct{})
	blocker := NewPlan(core.BuildDAG(core.FlatTreeList(2, 2), core.TS))
	blocked := make(chan error, 1)
	go func() {
		_, err := rt.Exec(blocker, Options{}, func(task int32, _ *Local) error {
			if task == 0 {
				close(held)
				<-release
			}
			return nil
		})
		blocked <- err
	}()
	<-held

	chain := NewPlan(core.BuildStreamDAG(1, 5, core.TS, false))
	ran := make(chan int, 1)
	go func() {
		n := 0
		_, err := rt.Exec(chain, Options{}, func(int32, *Local) error { n++; return nil })
		if err != nil {
			t.Error(err)
		}
		ran <- n
	}()
	select {
	case n := <-ran:
		if n != chain.DAG().NumTasks() {
			t.Errorf("the chain ran %d of %d tasks", n, chain.DAG().NumTasks())
		}
	case <-time.After(5 * time.Second):
		t.Error("a chain waited for the runtime's busy worker instead of running on its submitter")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}
