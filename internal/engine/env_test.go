package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
)

// TestBareEnvHonoursWorkersEnv: a zero Env resolves its width like every
// other default — TILEDQR_WORKERS if set, else GOMAXPROCS — and runs on
// the shared runtime of that width.
func TestBareEnvHonoursWorkersEnv(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Setenv("TILEDQR_WORKERS", "3")
	cfg := testConfig()
	cfg.Env, cfg.Trace = Env{}, true
	f, err := Factor(tile.RandDense[float64](40, 16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Trace().Workers; got != 3 {
		t.Errorf("GOMAXPROCS=1, TILEDQR_WORKERS=3: bare Env ran on %d workers, want 3", got)
	}
}

// TestSerialStatsCountRanTasks: an inline run that stops at a failing task
// reports the tasks that ran, the failing one included, as the pool does —
// on the Workers == 1 path and for a chain a runtime runs on its submitter.
func TestSerialStatsCountRanTasks(t *testing.T) {
	rt := sched.NewRuntime(2)
	defer rt.Close()
	p := sched.NewPlan(core.BuildStreamDAG(1, 6, core.TS, false))
	if !p.Serial() {
		t.Fatal("a q=1 merge is not a chain")
	}
	fail := errors.New("task failed")
	for _, env := range []Env{{Workers: 1}, {Runtime: rt}} {
		for k := 0; k < p.DAG().NumTasks(); k++ {
			var st sched.JobStats
			_, err := env.run(p, RunOpts{Stats: &st}, func(task int32, _ *sched.Local) error {
				if int(task) == k {
					return fail
				}
				return nil
			})
			if !errors.Is(err, fail) {
				t.Fatalf("runtime=%v, error at task %d: run = %v", env.Runtime != nil, k, err)
			}
			if st.Tasks != int64(k+1) {
				t.Errorf("runtime=%v, error at task %d: Stats.Tasks = %d, want %d", env.Runtime != nil, k, st.Tasks, k+1)
			}
		}
	}
}

// TestLateWorkerFindsScratch: a worker that gets none of a factorization's
// first tasks — here it is held inside another job's task meanwhile — must
// not allocate its kernel workspace in a later run. The first run on a
// runtime reserves every worker's workspace, whichever workers it reaches.
func TestLateWorkerFindsScratch(t *testing.T) {
	rt := sched.NewRuntime(2)
	defer rt.Close()
	held, release, blocked := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var first atomic.Bool
	go func() { // a two-source DAG: one worker blocks in a task, the other stays free
		_, err := rt.Exec(sched.NewPlan(core.BuildDAG(core.GreedyList(2, 1), core.TT)), sched.Options{},
			func(int32, *sched.Local) error {
				if first.CompareAndSwap(false, true) {
					close(held)
					<-release
				}
				return nil
			})
		blocked <- err
	}()
	<-held
	cfg := testConfig()
	cfg.TileSize, cfg.InnerBlock, cfg.Env = 64, 16, Env{Runtime: rt}
	a := tile.RandDense[float64](256, 256, 1)
	var f Factorization[float64]
	run := func() {
		if err := FactorInto(&f, a, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // on the free worker only
		run()
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if ws := uint64(f.wsLen * 8); perRun > ws/runs/2 {
		t.Errorf("a warm FactorInto allocated %d B per run, want no worker workspace (%d B) in any of %d runs", perRun, ws, runs)
	}
}
