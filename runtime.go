package tiledqr

import (
	"context"
	"sync"

	"tiledqr/internal/sched"
)

// Runtime is a persistent pool of worker goroutines that executes the task
// DAGs of any number of concurrent factorizations — the role PLASMA's
// resident dynamic scheduler plays in the paper's experiments. One runtime
// serves every factorization and every stream across all
// four precisions: submit from as many goroutines as you like, and the
// pool multiplexes the work with critical-path priorities inside each
// factorization and weighted-fair admission across them, so one huge
// factorization cannot starve a fleet of small ones.
//
// Most programs never construct one: with Options.Runtime nil and
// Options.Workers zero, calls share the process-wide DefaultRuntime.
// Setting Options.Workers > 1 instead runs the call on the process-wide
// runtime of that width, started on first use and kept for the life of the
// process like the default one. Construct a dedicated Runtime to bound a
// subsystem's parallelism or to isolate latency-sensitive work, and Close
// it when done.
type Runtime struct {
	s *sched.Runtime
}

// NewRuntime starts a runtime with the given number of resident workers.
// workers ≤ 0 means the default sizing: the TILEDQR_WORKERS environment
// variable when it parses as a positive integer, else GOMAXPROCS — so
// container deployments can cap the library's parallelism without a code
// change. The workers park when idle; call Close to stop them.
func NewRuntime(workers int) *Runtime {
	return &Runtime{s: sched.NewRuntime(workers)}
}

var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *Runtime
)

// DefaultRuntime returns the process-wide shared runtime, started on first
// use with the default sizing (TILEDQR_WORKERS if set to a positive
// integer, else GOMAXPROCS). Factorizations with neither Options.Runtime
// nor Options.Workers set execute here. Closing it is a no-op: it lives for
// the process.
func DefaultRuntime() *Runtime {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = &Runtime{s: sched.Shared(0)}
	})
	return defaultRuntime
}

// Workers returns the size of the worker pool.
func (rt *Runtime) Workers() int { return rt.s.Workers() }

// RuntimeStats is a point-in-time snapshot of a Runtime's load, as reported
// by Runtime.Stats — the feed for a serving front end's health and stats
// endpoints.
type RuntimeStats struct {
	// Workers is the size of the worker pool.
	Workers int
	// QueuedTasks counts ready kernel tasks waiting in the worker deques
	// across every in-flight factorization — the instantaneous backlog the
	// pool has yet to execute. Tasks whose dependencies are unmet are not
	// counted until they become ready.
	QueuedTasks int
	// InFlightJobs counts factorization/merge DAGs submitted and not yet
	// completed (each Factor, FactorInto, stream append or solve that runs
	// on the pool is one job).
	InFlightJobs int
	// Draining and Closed report lifecycle state: a draining or closed
	// runtime rejects new submissions.
	Draining bool
	Closed   bool
}

// Stats snapshots the runtime's current load. It is safe to call from any
// goroutine and cheap enough for per-request admission checks; the counts
// are a consistent-enough point-in-time view, not a serialized snapshot.
func (rt *Runtime) Stats() RuntimeStats {
	s := rt.s.Stats()
	return RuntimeStats{
		Workers:      s.Workers,
		QueuedTasks:  s.QueuedTasks,
		InFlightJobs: s.InFlight,
		Draining:     s.Draining,
		Closed:       s.Closed,
	}
}

// Close waits for in-flight factorizations to complete, then stops the
// workers and waits for them to exit; afterwards submitting to the runtime
// fails with ErrRuntimeClosed (it never hangs). Close is idempotent:
// calling it twice is safe. Closing the DefaultRuntime is a no-op.
func (rt *Runtime) Close() { rt.s.Close() }

// Drain gracefully quiesces the runtime: new submissions are rejected with
// ErrRuntimeDraining and Drain waits — bounded by ctx — for every in-flight
// factorization to complete. It returns nil once the runtime is idle, or
// ctx.Err() if the deadline expires first (in-flight work keeps running; a
// later Drain or Close can wait for it again). Draining the DefaultRuntime
// waits for idleness but never rejects submissions — it lives for the
// process. A nil ctx waits without bound.
func (rt *Runtime) Drain(ctx context.Context) error { return rt.s.Drain(ctx) }

// ErrRuntimeClosed and ErrRuntimeDraining report submissions to a Runtime
// that is no longer accepting work; match them with errors.Is.
var (
	ErrRuntimeClosed   = sched.ErrClosed
	ErrRuntimeDraining = sched.ErrDraining
)
