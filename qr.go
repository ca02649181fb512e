package tiledqr

import (
	"context"
	"fmt"

	"tiledqr/internal/engine"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
)

// QR is a tiled QR factorization A = Q·R over any supported scalar domain:
// the factored tiles (R plus the Householder representation of Q) and
// everything needed to apply Q. The paper's algorithms are elimination
// lists and task DAGs that never mention the arithmetic, so one type serves
// all four precisions.
//
// A zero QR is the valid target of FactorIntoOf. Until one succeeds it is
// empty: every accessor returns — or, for the value-returning ones, panics
// with — an "empty factorization" error, and TaskCount is 0. Copies of a
// QR handle refer to the same factorization.
type QR[T Scalar] struct {
	e *engine.Factorization[T]
}

// eng returns the engine state behind the handle, allocating it on first
// use: that is what makes the zero QR a FactorIntoOf target, and the empty
// engine value is what reports the "empty factorization" errors.
func (f *QR[T]) eng() *engine.Factorization[T] {
	if f.e == nil {
		f.e = new(engine.Factorization[T])
	}
	return f.e
}

// FactorOf computes the tiled QR factorization A = Q·R of an m×n matrix
// (any m, n ≥ 1) in the scalar domain T. A is not modified. When ctx is
// cancelled, in-flight kernel tasks finish, queued tasks are dropped, and
// the call returns ctx.Err(); other factorizations sharing the runtime are
// unaffected. A nil ctx never cancels.
func FactorOf[T Scalar](ctx context.Context, a *Mat[T], opt Options) (*QR[T], error) {
	f := new(QR[T])
	if err := FactorIntoOf(ctx, f, a, opt); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorIntoOf factors a into f, reusing f's tile storage, T factors, task
// DAG and execution plan when a's shape and the structural options
// (algorithm, kernels, tile/inner-block sizes, tree parameters) match f's
// previous factorization — the zero-allocation serving path for fleets of
// same-shaped problems. A mismatch rebuilds storage transparently. f may
// be a zero &QR[T]{}. On error or cancellation, any previous factorization
// held by f is gone (its storage was overwritten): accessors return or
// panic with the cause until a later FactorIntoOf/Refactor succeeds. ctx
// is as for FactorOf.
func FactorIntoOf[T Scalar](ctx context.Context, f *QR[T], a *Mat[T], opt Options) error {
	if f == nil {
		return fmt.Errorf("tiledqr: FactorInto: f must not be nil")
	}
	if a == nil || a.Rows < 1 || a.Cols < 1 {
		return fmt.Errorf("tiledqr: cannot factor an empty matrix")
	}
	opt, err := resolveAuto[T](a.Rows, a.Cols, opt)
	if err != nil {
		return err
	}
	if err := opt.validate(tile.NewGrid(a.Rows, a.Cols, opt.TileSize).P); err != nil {
		return err
	}
	return engine.FactorInto(f.eng(), (*tile.Dense[T])(a), engine.Config{
		Algorithm:   opt.Algorithm.core(),
		Kernels:     opt.Kernels.core(),
		CoreOpts:    opt.coreOptions(),
		TileSize:    opt.TileSize,
		InnerBlock:  opt.InnerBlock,
		Env:         opt.execEnv(),
		Trace:       opt.Trace,
		Ctx:         ctx,
		CheckHealth: opt.CheckHealth,
	})
}

// Refactor re-runs the factorization over new matrix data with the same
// options, reusing every internal buffer when a has the previous shape.
// Steady-state Refactor allocates O(1). After a failed or cancelled
// execution, a successful Refactor rebuilds storage and clears the sticky
// failure state.
func (f *QR[T]) Refactor(a *Mat[T]) error { return f.RefactorCtx(nil, a) }

// RefactorCtx is Refactor under a cancellation context (see FactorOf); ctx
// applies to this call only and is never retained.
func (f *QR[T]) RefactorCtx(ctx context.Context, a *Mat[T]) error {
	return f.eng().RefactorCtx(ctx, (*tile.Dense[T])(a))
}

// Err returns the cause of the last failed or cancelled factorization
// attempt, nil while the factorization is valid.
func (f *QR[T]) Err() error { return f.eng().Err() }

// R returns the min(m,n)×n upper triangular (trapezoidal) factor.
func (f *QR[T]) R() *Mat[T] { return (*Mat[T])(f.eng().R()) }

// ApplyQ overwrites b (m×nrhs) with Q·b.
func (f *QR[T]) ApplyQ(b *Mat[T]) error { return f.ApplyQCtx(nil, b) }

// ApplyQCtx is ApplyQ under a cancellation context; on cancellation b is
// partially transformed and must be discarded.
func (f *QR[T]) ApplyQCtx(ctx context.Context, b *Mat[T]) error {
	return f.eng().Apply(ctx, (*tile.Dense[T])(b), false)
}

// ApplyQH overwrites b (m×nrhs) with Qᴴ·b by replaying the factorization's
// transformations in execution order.
func (f *QR[T]) ApplyQH(b *Mat[T]) error { return f.ApplyQHCtx(nil, b) }

// ApplyQHCtx is ApplyQH under a cancellation context; on cancellation b is
// partially transformed and must be discarded.
func (f *QR[T]) ApplyQHCtx(ctx context.Context, b *Mat[T]) error {
	return f.eng().Apply(ctx, (*tile.Dense[T])(b), true)
}

// Q returns the full m×m orthogonal (unitary) factor, built by applying Q
// to the identity; O(m³) work — prefer ThinQ or ApplyQ for large m.
func (f *QR[T]) Q() *Mat[T] { return (*Mat[T])(f.eng().Q()) }

// ThinQ returns the first min(m,n) columns of Q (the orthonormal basis of
// A's column span when A has full column rank).
func (f *QR[T]) ThinQ() *Mat[T] { return (*Mat[T])(f.eng().ThinQ()) }

// SolveLS solves the least-squares problem min‖A·x − b‖₂ for each column of
// b (m×nrhs), returning the n×nrhs solution. Requires m ≥ n and a
// nonsingular R.
func (f *QR[T]) SolveLS(b *Mat[T]) (*Mat[T], error) { return f.SolveLSCtx(nil, b) }

// SolveLSCtx is SolveLS under a cancellation context (see FactorOf).
func (f *QR[T]) SolveLSCtx(ctx context.Context, b *Mat[T]) (*Mat[T], error) {
	x, err := f.eng().SolveLS(ctx, (*tile.Dense[T])(b))
	return (*Mat[T])(x), err
}

// Trace returns the execution trace (nil unless Options.Trace was set).
func (f *QR[T]) Trace() *sched.Trace { return f.eng().Trace() }

// GanttChart renders an ASCII Gantt chart of the traced execution (one row
// per worker, `width` time columns). Requires Options.Trace.
func (f *QR[T]) GanttChart(width int) string { return f.eng().GanttChart(width) }

// Utilization returns per-worker busy fractions and overall parallel
// efficiency of the traced execution. Requires Options.Trace.
func (f *QR[T]) Utilization() sched.Utilization { return f.eng().Utilization() }

// TaskCount returns the number of kernel tasks the factorization executed.
func (f *QR[T]) TaskCount() int { return f.eng().TaskCount() }

// Grid returns the tile grid dimensions (p×q) and tile size.
func (f *QR[T]) Grid() (p, q, nb int) { return f.eng().Grid() }
