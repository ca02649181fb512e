// Package sched is the dynamic runtime that executes tiled QR task DAGs on
// a pool of workers, playing the role of PLASMA's dynamic scheduler in the
// paper's experiments: tasks become ready when their dependency counters
// reach zero and are executed so that factor and update stages overlap
// exactly as the dependency analysis of §2 allows.
//
// The pool is persistent (see Runtime in runtime.go): one set of worker
// goroutines executes the DAGs of any number of concurrent factorizations,
// with critical-path priorities inside each DAG and weighted-fair admission
// across DAGs. Shared keeps one such runtime per width for the life of the
// process, and RunInline is the deterministic single-goroutine path, which
// Exec also takes for a chain-shaped DAG (Plan.Serial).
package sched

import (
	"context"
	"fmt"
	"time"

	"tiledqr/internal/core"
)

// Span records the execution of one task for tracing and Gantt analysis.
type Span struct {
	Task   int32
	Worker int
	Start  time.Duration // since the job was submitted
	End    time.Duration
}

// Trace is the per-job execution record returned when tracing is on.
type Trace struct {
	Workers int
	Spans   []Span
	Elapsed time.Duration
}

// Options configures a DAG execution.
type Options struct {
	// Trace enables per-task span recording.
	Trace bool
	// Ctx, when non-nil, cancels the job: in-flight tasks finish, queued
	// tasks are dropped, and the submitter gets ctx.Err(). nil means the
	// job runs to completion or first task error.
	Ctx context.Context
	// Stats, when non-nil, is filled on completion with the job's execution
	// accounting: tasks run, summed kernel time across workers, and wall
	// clock. Far cheaper than Trace (two clock reads per task, no span
	// storage) — the compute side of comms-vs-compute overlap accounting in
	// the distributed layer.
	Stats *JobStats
}

// JobStats is the per-job execution summary requested through
// Options.Stats: how much worker time the job's tasks consumed versus its
// submit-to-completion wall clock. Busy > Wall means the DAG ran with real
// parallelism; Busy/Wall is the job's effective worker count.
type JobStats struct {
	Tasks int64         // tasks executed (dropped tasks of a canceled job excluded)
	Busy  time.Duration // summed task execution time across all workers
	Wall  time.Duration // submission to completion
}

// Add accumulates another job's stats — callers tracking a whole session of
// executions (one per round in the distributed layer) fold each job in.
func (s *JobStats) Add(o JobStats) {
	s.Tasks += o.Tasks
	s.Busy += o.Busy
	s.Wall += o.Wall
}

// Priorities returns the critical-path priority of every task: its Table 1
// kernel weight plus the weighted longest path to any sink (the b-level of
// list scheduling). Task IDs are topologically ordered, so one backward
// sweep suffices.
func Priorities(d *core.DAG) []int64 {
	n := d.NumTasks()
	prio := make([]int64, n)
	succOff, succs := d.Succs()
	for t := n - 1; t >= 0; t-- {
		var best int64
		for _, s := range succs[succOff[t]:succOff[t+1]] {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[t] = best + weight(d.Tasks[t].Kind)
	}
	return prio
}

// Validate checks that a trace respects every DAG dependency (each task
// starts after all its predecessors ended). Used by the runtime tests.
func (tr *Trace) Validate(d *core.DAG) error {
	if tr == nil || tr.Spans == nil {
		return fmt.Errorf("sched: trace has no spans")
	}
	end := make(map[int32]time.Duration, len(tr.Spans))
	startT := make(map[int32]time.Duration, len(tr.Spans))
	for _, s := range tr.Spans {
		end[s.Task] = s.End
		startT[s.Task] = s.Start
	}
	if len(end) != d.NumTasks() {
		return fmt.Errorf("sched: trace covers %d of %d tasks", len(end), d.NumTasks())
	}
	for t := 0; t < d.NumTasks(); t++ {
		for _, p := range d.Preds(t) {
			if startT[int32(t)] < end[p] {
				return fmt.Errorf("sched: task %v started before predecessor %v finished", d.Tasks[t], d.Tasks[p])
			}
		}
	}
	return nil
}
