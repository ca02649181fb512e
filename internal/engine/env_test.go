package engine

import (
	"errors"
	"runtime"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
)

// TestBareEnvHonoursWorkersEnv: a zero Env resolves its width like every
// other default — TILEDQR_WORKERS if set, else GOMAXPROCS — for the
// inline-or-pool decision too, not only for the pool's size.
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
