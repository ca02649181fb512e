package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
)

func testConfig() Config {
	return Config{
		Algorithm:  core.Greedy,
		Kernels:    core.TT,
		TileSize:   8,
		InnerBlock: 4,
		Env:        Env{Workers: 1},
	}
}

// TestUnknownTaskKindReturnsError: a corrupted task kind must surface as an
// error from the shared dispatch (the one place the pre-engine code had a
// per-domain panic), both per task and through the scheduler run.
func TestUnknownTaskKindReturnsError(t *testing.T) {
	f, err := Factor(tile.RandDense[float64](24, 16, 1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := f.DAG()
	saved := d.Tasks[0].Kind
	d.Tasks[0].Kind = core.Kind(99)
	defer func() { d.Tasks[0].Kind = saved }()

	ws := make([]float64, kernel.WorkLen(8, 4))
	if err := ExecTask[float64](f, d, 0, 4, ws, false); err == nil {
		t.Error("ExecTask accepted an unknown task kind")
	} else if !strings.Contains(err.Error(), "unknown task kind") {
		t.Errorf("unexpected error: %v", err)
	}

	// Error propagation through both execution paths: the deterministic
	// inline run and a parallel pool.
	for _, env := range []Env{{Workers: 1}, {Workers: 2}} {
		p := sched.NewPlan(d)
		if _, err := ExecTasks[float64](f, p, env, RunOpts{}, Fill[float64]{}, 4, kernel.WorkLen(8, 4)); err == nil {
			t.Errorf("ExecTasks (workers=%d) did not propagate the dispatch error", env.Workers)
		} else if !strings.Contains(err.Error(), "unknown task kind") {
			t.Errorf("unexpected ExecTasks error: %v", err)
		}
	}
}

// TestDispatchErrorCancelsRun: a task error must cancel the job's
// outstanding tasks — the scheduler must not drain the rest of the DAG
// before reporting, and no task may still be executing once Exec has
// returned.
func TestDispatchErrorCancelsRun(t *testing.T) {
	d := core.BuildDAG(core.GreedyList(16, 8), core.TT)
	var executed atomic.Int64
	badTask := int32(2)
	exec := func(task int32, _ *sched.Local) error {
		if task == badTask {
			return errors.New("boom")
		}
		executed.Add(1)
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	rt := sched.NewRuntime(2)
	defer rt.Close()
	_, err := rt.Exec(sched.NewPlan(d), sched.Options{}, exec)
	if err == nil {
		t.Fatal("task error not reported")
	}
	atReturn := executed.Load()
	if int(atReturn) >= d.NumTasks()-1 {
		t.Errorf("scheduler drained the whole DAG (%d of %d tasks) before reporting", atReturn, d.NumTasks())
	}
	// The cancel guarantee: once Exec returned, nothing is still inside
	// exec, and dropped tasks never run.
	time.Sleep(20 * time.Millisecond)
	if after := executed.Load(); after != atReturn {
		t.Errorf("%d task(s) executed after Exec returned", after-atReturn)
	}
}

// TestFactorRoundTrip smoke-tests the generic engine directly at a
// non-default precision (the public wrappers cover the rest).
func TestFactorRoundTrip(t *testing.T) {
	a := tile.RandDense[float32](20, 12, 3)
	f, err := Factor(a, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := f.Q()
	r := f.R()
	rFull := tile.NewDense[float32](20, 12)
	for i := 0; i < r.Rows; i++ {
		copy(rFull.Data[i*rFull.Stride:i*rFull.Stride+12], r.Data[i*r.Stride:i*r.Stride+12])
	}
	if res := tile.ResidualQR(a, q, rFull); res > 1e-4 {
		t.Errorf("engine float32 residual %g", res)
	}
}

// TestFactorIntoReuse: a second factorization of the same shape must reuse
// the arena (same backing array) and produce the same R as a fresh Factor;
// a shape change must rebuild transparently.
func TestFactorIntoReuse(t *testing.T) {
	cfg := testConfig()
	a1 := tile.RandDense[float64](24, 16, 1)
	a2 := tile.RandDense[float64](24, 16, 2)

	f := &Factorization[float64]{}
	if err := FactorInto(f, a1, cfg); err != nil {
		t.Fatal(err)
	}
	arena1 := &f.arena[0]
	if err := f.RefactorCtx(nil, a2); err != nil {
		t.Fatal(err)
	}
	if &f.arena[0] != arena1 {
		t.Error("Refactor reallocated the arena for an identical shape")
	}
	fresh, err := Factor(a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tile.MaxAbsDiff(f.R(), fresh.R()); diff != 0 {
		t.Errorf("Refactor R differs from fresh Factor R by %g (want bit-identical)", diff)
	}

	// A different shape must rebuild, not corrupt.
	a3 := tile.RandDense[float64](17, 9, 3)
	if err := f.RefactorCtx(nil, a3); err != nil {
		t.Fatal(err)
	}
	fresh3, err := Factor(a3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tile.MaxAbsDiff(f.R(), fresh3.R()); diff != 0 {
		t.Errorf("post-rebuild R differs by %g", diff)
	}
}

// TestFailedRefactorInvalidates: a failed re-factorization overwrote the
// reused tiles, so the factorization must refuse to serve results (loud
// panic from R, error from Apply/SolveLS) until a later attempt succeeds.
func TestFailedRefactorInvalidates(t *testing.T) {
	cfg := testConfig()
	a := tile.RandDense[float64](24, 16, 1)
	f, err := Factor(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved := f.DAG().Tasks[0].Kind
	f.DAG().Tasks[0].Kind = core.Kind(99)
	if err := f.RefactorCtx(nil, a); err == nil {
		f.DAG().Tasks[0].Kind = saved
		t.Fatal("Refactor over a corrupted DAG succeeded")
	}
	f.DAG().Tasks[0].Kind = saved

	func() {
		defer func() {
			if recover() == nil {
				t.Error("R() served results from a failed factorization")
			}
		}()
		f.R()
	}()
	if err := f.Apply(nil, tile.NewDense[float64](24, 1), true); err == nil {
		t.Error("Apply served a failed factorization")
	}
	if _, err := f.SolveLS(nil, tile.NewDense[float64](24, 1)); err == nil {
		t.Error("SolveLS served a failed factorization")
	}

	// A subsequent attempt rebuilds from scratch and recovers.
	if err := f.RefactorCtx(nil, a); err != nil {
		t.Fatal(err)
	}
	fresh, err := Factor(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tile.MaxAbsDiff(f.R(), fresh.R()); diff != 0 {
		t.Errorf("recovered R differs by %g", diff)
	}
}
