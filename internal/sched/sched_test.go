package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"tiledqr/internal/core"
)

func testDAG() *core.DAG {
	return core.BuildDAG(core.GreedyList(10, 5), core.TT)
}

// runDAG executes the DAG once inline for one worker, otherwise on a
// runtime of that width built for this call and closed afterwards. exec
// sees the executing worker's id.
func runDAG(d *core.DAG, workers int, trace bool, exec func(task int32, worker int)) (*Trace, error) {
	wrapped := func(t int32, loc *Local) error {
		exec(t, loc.ID)
		return nil
	}
	if workers == 1 {
		return RunInline(d, Options{Trace: trace}, wrapped)
	}
	rt := NewRuntime(workers)
	defer rt.Close()
	return rt.Exec(NewPlan(d), Options{Trace: trace}, wrapped)
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	d := testDAG()
	for _, workers := range []int{1, 2, 4, 8} {
		counts := make([]int32, d.NumTasks())
		_, err := runDAG(d, workers, false, func(task int32, w int) {
			atomic.AddInt32(&counts[task], 1)
			if w < 0 || w >= workers {
				panic(fmt.Sprintf("worker id %d out of range", w))
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestRunRespectsDependencies(t *testing.T) {
	d := testDAG()
	for _, workers := range []int{2, 4} {
		done := make([]atomic.Bool, d.NumTasks())
		var violations atomic.Int32
		_, err := runDAG(d, workers, false, func(task int32, _ int) {
			for _, p := range d.Preds(int(task)) {
				if !done[p].Load() {
					violations.Add(1)
				}
			}
			done[task].Store(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := violations.Load(); v != 0 {
			t.Fatalf("workers=%d: %d dependency violations", workers, v)
		}
	}
}

func TestRunTraceValidates(t *testing.T) {
	d := testDAG()
	tr, err := runDAG(d, 4, true, func(int32, int) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(d); err != nil {
		t.Fatal(err)
	}
	if tr.Workers != 4 {
		t.Errorf("trace workers = %d, want 4", tr.Workers)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	d := testDAG()
	for _, workers := range []int{1, 3} {
		_, err := runDAG(d, workers, false, func(task int32, _ int) {
			if task == 5 {
				panic(errors.New("boom"))
			}
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
	}
}

func TestRunEmptyDAG(t *testing.T) {
	d := core.BuildDAG(core.List{P: 1, Q: 1}, core.TT)
	// A 1×1 grid has one GEQRT task; an empty list on a 1×1 grid still
	// triangularizes the diagonal.
	ran := 0
	if _, err := runDAG(d, 2, false, func(int32, int) { ran++ }); err != nil {
		t.Fatal(err)
	}
	if ran != d.NumTasks() {
		t.Fatalf("ran %d of %d tasks", ran, d.NumTasks())
	}
}

func TestSequentialIsTopological(t *testing.T) {
	d := testDAG()
	last := int32(-1)
	_, err := runDAG(d, 1, false, func(task int32, _ int) {
		if task <= last {
			t.Fatalf("sequential mode executed %d after %d", task, last)
		}
		last = task
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceValidateDetectsViolation(t *testing.T) {
	d := testDAG()
	tr, err := runDAG(d, 2, true, func(int32, int) {})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the trace: make a dependent task start before its
	// predecessor's end.
	for i := range tr.Spans {
		if len(d.Preds(int(tr.Spans[i].Task))) > 0 {
			tr.Spans[i].Start = -1
			break
		}
	}
	if err := tr.Validate(d); err == nil {
		t.Error("Validate accepted a corrupted trace")
	}
}

func TestUtilizationAndGantt(t *testing.T) {
	d := testDAG()
	busyWork := func(int32, int) {
		s := 0.0
		for i := 0; i < 20000; i++ {
			s += float64(i)
		}
		_ = s
	}
	tr, err := runDAG(d, 2, true, busyWork)
	if err != nil {
		t.Fatal(err)
	}
	u := tr.Utilization()
	if len(u.PerWorker) != 2 {
		t.Fatalf("got %d workers in utilization", len(u.PerWorker))
	}
	if u.Overall <= 0 || u.Overall > 1.0+1e-9 {
		t.Errorf("overall utilization %f out of (0,1]", u.Overall)
	}
	g := tr.Gantt(d, 40)
	if len(g) == 0 || g == "(no trace)\n" {
		t.Error("empty Gantt for a traced run")
	}
	bd := tr.KindBreakdown(d)
	if len(bd) == 0 {
		t.Error("empty kind breakdown")
	}
	var total int
	for _, s := range tr.Spans {
		_ = s
		total++
	}
	if total != d.NumTasks() {
		t.Errorf("trace covers %d of %d tasks", total, d.NumTasks())
	}
}

func TestGanttNoTrace(t *testing.T) {
	tr := &Trace{Workers: 2}
	if g := tr.Gantt(testDAG(), 40); g != "(no trace)\n" {
		t.Errorf("untraced Gantt = %q", g)
	}
}
