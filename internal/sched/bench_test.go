package sched

import (
	"testing"
	"time"

	"tiledqr/internal/core"
)

// BenchmarkRunDispatch measures pure runtime dispatch cost per task (empty
// kernels, resident pool, prebuilt plan) at several worker counts.
func BenchmarkRunDispatch(b *testing.B) {
	d := core.BuildDAG(core.GreedyList(20, 10), core.TT)
	plan := NewPlan(d)
	for _, workers := range []int{2, 4} {
		b.Run(map[int]string{2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			rt := NewRuntime(workers)
			defer rt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Exec(plan, Options{}, func(int32, *Local) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumTasks()), "ns/task")
		})
	}
}

// BenchmarkRunWeightedDAG emulates a factorization: each task spins for a
// duration proportional to its Table 1 weight, so the measured makespan
// reflects how well the scheduler overlaps the critical path — the paper's
// §2 scheduling experiment in miniature.
func BenchmarkRunWeightedDAG(b *testing.B) {
	d := core.BuildDAG(core.GreedyList(16, 8), core.TT)
	const unit = 2 * time.Microsecond
	busy := func(task int32, _ int) {
		deadline := time.Now().Add(time.Duration(d.Tasks[task].Kind.Weight()) * unit)
		for time.Now().Before(deadline) {
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := runDAG(d, DefaultWorkers(), false, busy); err != nil {
			b.Fatal(err)
		}
	}
}
