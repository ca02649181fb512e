package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiledqr/internal/core"
)

// TestRuntimeConcurrentJobs submits many DAGs from many goroutines to one
// shared pool and asserts, per job, exactly-once execution and dependency
// order. Run under -race this is the multi-DAG memory-model check.
func TestRuntimeConcurrentJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rt := NewRuntime(workers)
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				shapes := [][2]int{{4, 2}, {6, 3}, {1, 1}, {8, 4}}
				sh := shapes[g%len(shapes)]
				d := core.BuildDAG(core.GreedyList(sh[0], sh[1]), core.TT)
				for rep := 0; rep < 5; rep++ {
					counts := make([]int32, d.NumTasks())
					ended := make([]atomic.Bool, d.NumTasks())
					var violations atomic.Int32
					_, err := rt.Exec(NewPlan(d), Options{}, func(task int32, loc *Local) error {
						if loc.ID < 0 || loc.ID >= workers {
							return fmt.Errorf("worker id %d out of range", loc.ID)
						}
						for _, p := range d.Preds(int(task)) {
							if !ended[p].Load() {
								violations.Add(1)
							}
						}
						atomic.AddInt32(&counts[task], 1)
						ended[task].Store(true)
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
					for task, c := range counts {
						if c != 1 {
							errs <- fmt.Errorf("goroutine %d rep %d: task %d ran %d times", g, rep, task, c)
							return
						}
					}
					if v := violations.Load(); v != 0 {
						errs <- fmt.Errorf("goroutine %d rep %d: %d dependency violations", g, rep, v)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("workers=%d: %v", workers, err)
		}
		rt.Close()
	}
}

// TestRuntimeFairness: a fleet of small jobs submitted alongside one huge
// job must all complete before the huge one — the weighted-fair admission
// must not let the big DAG monopolize the pool.
func TestRuntimeFairness(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()

	// The huge job runs long enough (~100 ms of spinning) that the fleet's
	// submission latency is negligible next to it; each small job is one
	// fairness quantum of work, so every small must clear the pool long
	// before the huge job drains.
	huge := core.BuildDAG(core.GreedyList(24, 8), core.TT) // ≈ 430 tasks
	small := core.BuildDAG(core.GreedyList(3, 2), core.TT) // ≈ 10 tasks, weight ≈ 56
	spin := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
	}
	var started atomic.Int64
	var hugeDone, smallLate atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := rt.Exec(NewPlan(huge), Options{}, func(int32, *Local) error {
			started.Add(1)
			spin(250 * time.Microsecond)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		hugeDone.Store(1)
	}()
	// Let the huge job get going before the fleet arrives.
	for started.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := rt.Exec(NewPlan(small), Options{}, func(int32, *Local) error {
				spin(250 * time.Microsecond)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if hugeDone.Load() == 1 {
				smallLate.Add(1)
			}
		}()
	}
	wg.Wait()
	if late := smallLate.Load(); late != 0 {
		t.Errorf("%d small job(s) finished after the huge job — starved by unfair admission", late)
	}
}

// TestRuntimeCancelPrompt: an exec error must unblock the submitter
// without draining the DAG, and with no task left inside exec.
func TestRuntimeCancelPrompt(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	d := core.BuildDAG(core.GreedyList(20, 10), core.TT)
	var executed atomic.Int64
	var returned atomic.Bool
	_, err := rt.Exec(NewPlan(d), Options{}, func(task int32, _ *Local) error {
		if returned.Load() {
			t.Error("task executed after Exec returned")
		}
		if task == 1 {
			return errors.New("boom")
		}
		executed.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	returned.Store(true)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); int(n) >= d.NumTasks()-1 {
		t.Errorf("drained %d of %d tasks before reporting the error", n, d.NumTasks())
	}
	// The runtime must still be healthy for the next job.
	ran := atomic.Int64{}
	if _, err := rt.Exec(NewPlan(d), Options{}, func(int32, *Local) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != d.NumTasks() {
		t.Errorf("post-cancel job ran %d of %d tasks", ran.Load(), d.NumTasks())
	}
}

// TestRuntimeCloseRejectsAndIsIdempotent: Exec after Close fails; double
// Close is safe; Close of a Shared runtime is a no-op.
func TestRuntimeCloseRejectsAndIsIdempotent(t *testing.T) {
	rt := NewRuntime(2)
	rt.Close()
	rt.Close()
	d := core.BuildDAG(core.GreedyList(2, 1), core.TT)
	if _, err := rt.Exec(NewPlan(d), Options{}, func(int32, *Local) error { return nil }); err == nil {
		t.Error("Exec on a closed runtime succeeded")
	}
	def := Shared(0)
	def.Close()
	if _, err := def.Exec(NewPlan(d), Options{}, func(int32, *Local) error { return nil }); err != nil {
		t.Errorf("Shared(0) runtime unusable after Close: %v", err)
	}
}

// TestRuntimeTraceValidates: per-job traces on a shared pool must cover
// every task and respect dependencies, concurrently.
func TestRuntimeTraceValidates(t *testing.T) {
	rt := NewRuntime(3)
	defer rt.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := core.BuildDAG(core.GreedyList(10, 5), core.TT)
			tr, err := rt.Exec(NewPlan(d), Options{Trace: true}, func(int32, *Local) error { return nil })
			if err != nil {
				t.Error(err)
				return
			}
			if err := tr.Validate(d); err != nil {
				t.Error(err)
			}
			if tr.Workers != 3 {
				t.Errorf("trace workers = %d, want 3", tr.Workers)
			}
		}()
	}
	wg.Wait()
}

// TestPlanReuse: re-executing one Plan must reset dependency counters
// correctly (the steady-state Refactor path).
func TestPlanReuse(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	d := core.BuildDAG(core.GreedyList(8, 4), core.TT)
	p := NewPlan(d)
	for rep := 0; rep < 10; rep++ {
		var ran atomic.Int64
		if _, err := rt.Exec(p, Options{}, func(int32, *Local) error { ran.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		if int(ran.Load()) != d.NumTasks() {
			t.Fatalf("rep %d: ran %d of %d tasks", rep, ran.Load(), d.NumTasks())
		}
	}
}

// TestRunInlineStopsOnError: the inline path must stop at the first error.
func TestRunInlineStopsOnError(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(6, 3), core.TT)
	ran := 0
	_, err := RunInline(d, Options{}, func(task int32, _ *Local) error {
		if task == 4 {
			return errors.New("boom")
		}
		ran++
		return nil
	})
	if err == nil {
		t.Fatal("inline error not reported")
	}
	if ran != 4 {
		t.Errorf("inline ran %d tasks after the error (want stop at 4)", ran)
	}
}
