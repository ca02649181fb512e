// Package engine holds the one generic tiled-QR execution core shared by
// every public precision: the DAG execution loop (dispatching core tasks to
// the generic tile kernels through a Source, each task first copying in
// the tiles it writes first through a Fill), the Q application replay used
// by ApplyQ/ApplyQH and the streaming Qᵀb fold, one-shot factorization
// state (R extraction, thin/full Q, least squares, workspace pooling), and
// tracing. The public package wraps Factorization[T] in its one generic
// QR[T]; internal/stream reuses ExecTasks/Replay for its resident-triangle
// merges.
//
// Execution placement goes through Env: a shared persistent sched.Runtime
// (the default — many factorizations, one worker pool), a per-call pool
// (the explicit-Workers path), or inline on the calling goroutine
// (Workers == 1, and DAGs too small to be worth a cross-goroutine hop).
// Kernel workspaces are owned by
// the workers themselves — one grow-only buffer per arithmetic domain in
// each worker's sched.Local — so repeated factorizations allocate no
// scratch.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/fault"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Env selects where a DAG executes.
type Env struct {
	// Runtime, when non-nil, is the shared persistent pool to execute on.
	Runtime *sched.Runtime
	// Workers is honored only when Runtime is nil: a per-call pool of that
	// size is built and torn down around the execution (0 =
	// sched.DefaultWorkers: TILEDQR_WORKERS if set, else GOMAXPROCS); one
	// worker runs inline on the calling goroutine, deterministically.
	Workers int
}

// RunOpts carries the per-execution policies a DAG run honors: context
// cancellation, tracing, and opt-in numerical health checks. The zero
// value (no context, no trace, no checks) is the free-of-overhead happy
// path.
type RunOpts struct {
	// Ctx, when non-nil, cancels the execution: in-flight tasks finish,
	// queued tasks are dropped, and the run returns ctx.Err().
	Ctx context.Context
	// Trace enables per-task span recording.
	Trace bool
	// Check enables the poison fail-fast: every task verifies the tiles it
	// wrote are finite, so a NaN or Inf stops the DAG at the first task
	// that produces it instead of flowing downstream.
	Check bool
	// Stats, when non-nil, receives the job's execution accounting (tasks
	// run, summed kernel time, wall clock).
	Stats *sched.JobStats
}

// run executes the plan's DAG under the Env's placement policy.
func (e Env) run(p *sched.Plan, opts RunOpts, exec sched.Exec) (*sched.Trace, error) {
	if e.Runtime != nil {
		return e.Runtime.Exec(p, sched.Options{Trace: opts.Trace, Ctx: opts.Ctx, Stats: opts.Stats}, exec)
	}
	workers := e.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	if workers == 1 {
		tr, err := sched.RunInline(opts.Ctx, p.DAG(), opts.Trace, exec)
		if opts.Stats != nil {
			// Inline runs have no idle worker time: busy equals wall.
			*opts.Stats = sched.JobStats{Tasks: int64(p.DAG().NumTasks()), Busy: tr.Elapsed, Wall: tr.Elapsed}
		}
		return tr, err
	}
	rt := sched.NewRuntime(workers)
	defer rt.Close()
	return rt.Exec(p, sched.Options{Trace: opts.Trace, Ctx: opts.Ctx, Stats: opts.Stats}, exec)
}

// WorkerWS returns worker-local kernel scratch of length n, growing the
// worker's cached buffer when a larger factorization comes through. Only
// the owning worker touches a Local, so no synchronization is needed, and
// steady-state executions allocate nothing here.
func WorkerWS[T vec.Scalar](loc *sched.Local, n int) []T {
	s := &loc.Slots[vec.Prec[T]()]
	if ws, ok := (*s).([]T); ok && cap(ws) >= n {
		return ws[:n]
	}
	ws := make([]T, n)
	*s = ws
	return ws
}

// Config carries the resolved factorization parameters from the public
// options layer (defaults applied, values validated) down to the engine.
type Config struct {
	Algorithm  core.Algorithm
	Kernels    core.Kernels
	CoreOpts   core.Options
	TileSize   int
	InnerBlock int
	Env        Env
	Trace      bool
	// Ctx cancels the factorization's DAG execution (per call, never
	// retained by the factorization).
	Ctx context.Context
	// CheckHealth enables input validation (reject non-finite entries) and
	// the breakdown fail-fast (every task verifies its output tiles are
	// finite).
	CheckHealth bool
	// Stats, when non-nil, receives the DAG execution's accounting (tasks,
	// busy, wall) for this factorization — per call, never retained.
	Stats *sched.JobStats
}

// reuseKey is the structural identity of a factorization: FactorInto
// reuses tiles, T-factor arena, DAG and execution plan when it matches.
type reuseKey struct {
	m, n       int
	algorithm  core.Algorithm
	kernels    core.Kernels
	coreOpts   core.Options
	tileSize   int
	innerBlock int
}

// Source resolves the tile and T-factor operands of DAG tasks, all in the
// 1-based tile coordinates the task lists use. It is implemented by
// Factorization (plain grid mapping) and by the streaming core (stacked
// resident-triangle + batch mapping), so exactly one dispatch loop exists.
type Source[T vec.Scalar] interface {
	// TileAt returns tile (i, k).
	TileAt(i, k int) *tile.Dense[T]
	// TFactor returns the GEQRT T-factor storage of tile (i, k).
	TFactor(i, k int) []T
	// T2Factor returns the TSQRT/TTQRT T-factor storage of tile (i, k).
	T2Factor(i, k int) []T
	// KCols returns the column count of tile column k.
	KCols(k int) int
}

// isFinite reports whether v is free of NaN and Inf components. vec.Abs is
// overflow-safe (scaled hypot in the complex domains), so huge-but-finite
// values are not misreported.
func isFinite[T vec.Scalar](v T) bool {
	a := vec.Abs(v)
	return !math.IsNaN(a) && !math.IsInf(a, 0)
}

// CheckFinite scans a matrix for non-finite entries, returning a
// descriptive error naming the first offender — the input-validation half
// of Options.CheckHealth, shared by the one-shot and streaming paths.
func CheckFinite[T vec.Scalar](what string, a *tile.Dense[T]) error {
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		for j, v := range row {
			if !isFinite(v) {
				return fmt.Errorf("tiledqr: CheckHealth: %s contains a non-finite entry %v at (%d,%d)", what, v, i, j)
			}
		}
	}
	return nil
}

// checkTile is the breakdown fail-fast of Options.CheckHealth: a tile a
// task just wrote must be free of non-finite entries, otherwise a NaN or
// Inf would silently propagate into every downstream task. The scan is
// O(nb²) against the kernel's O(nb³) work, so the opt-in costs a few
// percent; every output tile of every task is scanned, so a finite input
// that overflows mid-factorization (entries near ±MaxFloat) is caught at
// the task that produced the overflow — not just on the R diagonal.
func checkTile[T vec.Scalar](a *tile.Dense[T], task core.Task) error {
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		for j, v := range row {
			if !isFinite(v) {
				return fmt.Errorf("tiledqr: CheckHealth: numerical breakdown: non-finite entry %v at local (%d,%d) after %v (non-finite input or overflow upstream)", v, i, j, task)
			}
		}
	}
	return nil
}

// checkTask scans every tile the task wrote (factor kernels also rewrite
// the reflector tile; appliers rewrite one or two trailing tiles). Each
// tile's final content is checked by the last task that wrote it, so a
// run whose every check passed has a fully finite factorization.
func checkTask[T vec.Scalar](src Source[T], task core.Task) error {
	switch task.Kind {
	case core.KGEQRT:
		return checkTile(src.TileAt(task.I, task.K), task)
	case core.KUNMQR:
		return checkTile(src.TileAt(task.I, task.J), task)
	case core.KTSQRT, core.KTTQRT:
		if err := checkTile(src.TileAt(task.Piv, task.K), task); err != nil {
			return err
		}
		return checkTile(src.TileAt(task.I, task.K), task)
	case core.KTSMQR, core.KTTMQR:
		if err := checkTile(src.TileAt(task.Piv, task.J), task); err != nil {
			return err
		}
		return checkTile(src.TileAt(task.I, task.J), task)
	}
	return nil
}

// injectFault consults the armed fault injector for this task. It returns
// (poison, err): err aborts the task (ModeError), poison asks the caller
// to NaN the task's output tile after the kernel runs (ModeNaN). ModePanic
// panics here — the scheduler's containment turns it into a job error —
// and ModeStall sleeps before the kernel executes.
func injectFault[T vec.Scalar](task core.Task) (bool, error) {
	prec := vec.Prec[T]().Tag()
	act, hit := fault.Check(task.Kind, prec)
	if !hit {
		return false, nil
	}
	switch act.Mode {
	case fault.ModeError:
		return false, fault.Errorf(task.Kind, prec)
	case fault.ModePanic:
		panic(fault.PanicMsg(task.Kind, prec))
	case fault.ModeStall:
		time.Sleep(act.Stall)
	case fault.ModeNaN:
		return true, nil
	}
	return false, nil
}

// outTile returns the tile a task writes its primary output to: the
// factored/zeroed tile for factor kernels, the updated trailing tile for
// appliers — the target of a ModeNaN poison injection.
func outTile[T vec.Scalar](src Source[T], task core.Task) *tile.Dense[T] {
	switch task.Kind {
	case core.KUNMQR, core.KTSMQR, core.KTTMQR:
		return src.TileAt(task.I, task.J)
	default:
		return src.TileAt(task.I, task.K)
	}
}

// ExecTask dispatches one DAG task to the corresponding tile kernel.
// Unknown task kinds are reported as an error (not a panic): the DAG is
// data, and a malformed one must fail the factorization, not the process.
// check enables the per-task breakdown fail-fast of Options.CheckHealth;
// when the process-global fault injector is armed, matching tasks suffer
// their configured failure here (one atomic load when disarmed).
func ExecTask[T vec.Scalar](src Source[T], d *core.DAG, t int32, ib int, ws []T, check bool) error {
	task := d.Tasks[t]
	poison := false
	if fault.Armed() {
		var err error
		if poison, err = injectFault[T](task); err != nil {
			return err
		}
	}
	switch task.Kind {
	case core.KGEQRT:
		a := src.TileAt(task.I, task.K)
		kernel.GEQRT(a.Rows, a.Cols, ib, a.Data, a.Stride,
			src.TFactor(task.I, task.K), a.Cols, ws)
	case core.KUNMQR:
		v := src.TileAt(task.I, task.K)
		c := src.TileAt(task.I, task.J)
		kernel.UNMQR(true, v.Rows, min(v.Rows, v.Cols), ib, v.Data, v.Stride,
			src.TFactor(task.I, task.K), v.Cols, c.Data, c.Stride, c.Cols, ws)
	case core.KTSQRT, core.KTTQRT:
		a := src.TileAt(task.Piv, task.K)
		b := src.TileAt(task.I, task.K)
		m, l := b.Rows, 0
		if task.Kind == core.KTTQRT {
			m = min(b.Rows, a.Cols)
			l = m
		}
		kernel.TPQRT(m, a.Cols, l, ib, a.Data, a.Stride, b.Data, b.Stride,
			src.T2Factor(task.I, task.K), a.Cols, ws)
	case core.KTSMQR, core.KTTMQR:
		v := src.TileAt(task.I, task.K)
		c1 := src.TileAt(task.Piv, task.J)
		c2 := src.TileAt(task.I, task.J)
		kRef := src.KCols(task.K)
		m, l := v.Rows, 0
		if task.Kind == core.KTTMQR {
			m = min(v.Rows, kRef)
			l = m
		}
		kernel.TPMQRT(true, m, kRef, l, ib, v.Data, v.Stride,
			src.T2Factor(task.I, task.K), kRef,
			c1.Data, c1.Stride, c2.Data, c2.Stride, c2.Cols, ws)
	default:
		return fmt.Errorf("tiledqr: unknown task kind %v (task %d)", task.Kind, t)
	}
	if poison {
		outTile(src, task).Data[0] = vec.FromParts[T](math.NaN(), math.NaN())
	}
	if check {
		return checkTask(src, task)
	}
	return nil
}

// Fill is the copy-in hook of ExecTasks: each task fills the tiles it
// writes first (core.DAG.FirstWrites) from the dense matrix Src just before
// its kernel runs. The conversion to tile layout thus runs on every worker,
// overlapped with the first kernels, right before the first kernel that
// reads each tile. Tile (i, j) (1-based) is copied from
// row (i−Skip−1)·NB, column (j−1)·NB of Src on; tile rows 1..Skip (a
// stream's resident triangle) hold state and are not filled. The copy is
// scaled by Scale (a plain copy at 1; 0 zeroes the tiles). The zero Fill
// fills nothing: the tiles already hold their data.
type Fill[T vec.Scalar] struct {
	Src   tile.Dense[T]
	Skip  int
	NB    int
	Scale float64
}

// tiles fills the tiles task t writes first.
func (fl Fill[T]) tiles(src Source[T], d *core.DAG, t int32) {
	for _, x := range d.FirstWrites(int(t)) {
		i, j := int(x)/d.Q+1, int(x)%d.Q+1
		if i <= fl.Skip {
			continue
		}
		dst := src.TileAt(i, j)
		r0, c0 := (i-fl.Skip-1)*fl.NB, (j-1)*fl.NB
		for r := 0; r < dst.Rows; r++ {
			from := fl.Src.Data[(r0+r)*fl.Src.Stride+c0:]
			ScaleCopy(dst.Data[r*dst.Stride:r*dst.Stride+dst.Cols], from[:dst.Cols], fl.Scale)
		}
	}
}

// ScaleCopy sets dst = scale·src (a plain copy at scale 1).
func ScaleCopy[T vec.Scalar](dst, src []T, scale float64) {
	if scale == 1 {
		copy(dst, src)
		return
	}
	f := vec.FromParts[T](scale, 0)
	for j, v := range src {
		dst[j] = f * v
	}
}

// ExecTasks runs every task of the plan's DAG under env, dispatching
// through ExecTask with the executing worker's own kernel workspace, after
// the task's share of fill's copy-in. The first dispatch error, kernel
// panic, health-check failure, or context cancellation cancels the job's
// outstanding tasks and is returned promptly — the scheduler does not
// drain the rest of the DAG first. Tiles whose first writer never ran are
// then left unfilled, so a failed run's tiles must not be served.
func ExecTasks[T vec.Scalar](src Source[T], p *sched.Plan, env Env, opts RunOpts, fill Fill[T], ib, wsLen int) (*sched.Trace, error) {
	d := p.DAG()
	check := opts.Check
	return env.run(p, opts, func(t int32, loc *sched.Local) error {
		if fill.Src.Data != nil {
			fill.tiles(src, d, t)
		}
		return ExecTask(src, d, t, ib, WorkerWS[T](loc, wsLen), check)
	})
}

// Replay applies the Q transformations recorded in the DAG's factor tasks
// to a stacked block-row right-hand side: row(i) returns the RHS rows of
// tile row i (1-based) and their row stride. trans replays Qᴴ in execution
// order; !trans replays Q by walking the tasks backwards (task IDs are
// topological). Update-kernel tasks (UNMQR/TSMQR/TTMQR) carry no new
// reflectors and are skipped. The replay is sequential on the calling
// goroutine. ws is kernel scratch: any length ≥ ib·nrhs works, and
// kernel.ApplyWorkLen(nb, ib, nrhs) lets wide right-hand sides use the
// packed bulk path; nrhs < vec.GemmMinCols runs the kernels' vector form,
// which needs ib elements and costs ≈ 4 flops per stored reflector entry
// per column. A non-nil ctx cancels the replay at the next task boundary,
// returning ctx.Err() — the partially transformed RHS is then garbage, so
// callers must not serve it.
func Replay[T vec.Scalar](ctx context.Context, src Source[T], d *core.DAG, trans bool, row func(i int) ([]T, int), nrhs, ib int, ws []T) error {
	var cancelCh <-chan struct{}
	if ctx != nil {
		cancelCh = ctx.Done()
	}
	applyOne := func(task core.Task) {
		switch task.Kind {
		case core.KGEQRT:
			v := src.TileAt(task.I, task.K)
			c, ldc := row(task.I)
			kernel.UNMQR(trans, v.Rows, min(v.Rows, v.Cols), ib, v.Data, v.Stride,
				src.TFactor(task.I, task.K), v.Cols, c, ldc, nrhs, ws)
		case core.KTSQRT, core.KTTQRT:
			v := src.TileAt(task.I, task.K)
			c1, ldc1 := row(task.Piv)
			c2, ldc2 := row(task.I)
			kRef := src.KCols(task.K)
			m, l := v.Rows, 0
			if task.Kind == core.KTTQRT {
				m = min(v.Rows, kRef)
				l = m
			}
			kernel.TPMQRT(trans, m, kRef, l, ib, v.Data, v.Stride,
				src.T2Factor(task.I, task.K), kRef,
				c1, ldc1, c2, ldc2, nrhs, ws)
		}
	}
	canceled := func() bool {
		if cancelCh == nil {
			return false
		}
		select {
		case <-cancelCh:
			return true
		default:
			return false
		}
	}
	if trans {
		for _, task := range d.Tasks {
			if canceled() {
				return ctx.Err()
			}
			applyOne(task)
		}
	} else {
		for t := len(d.Tasks) - 1; t >= 0; t-- {
			if canceled() {
				return ctx.Err()
			}
			applyOne(d.Tasks[t])
		}
	}
	return nil
}

// Factorization is the generic one-shot tiled QR state: the factored tiles
// (R plus the Householder representation of Q) and everything needed to
// apply Q, for any scalar domain. A zero Factorization is the valid target
// of FactorInto; Refactor re-runs it over new data with zero steady-state
// allocation.
type Factorization[T vec.Scalar] struct {
	grid    tile.Grid
	mat     *tile.Matrix[T]
	dag     *core.DAG
	plan    *sched.Plan
	arena   []T   // one contiguous block: all tile payloads, then all T factors
	tg      [][]T // GEQRT T factors per tile, indexed (i-1)*q+(k-1), views into arena
	t2      [][]T // TSQRT/TTQRT T factors per tile, views into arena
	ib      int
	wsLen   int
	key     reuseKey
	env     Env
	traceOn bool
	checkOn bool
	valid   bool  // false between a failed execution and the next rebuild
	ferr    error // cause of the last failed execution, cleared on success
	trace   *sched.Trace
}

// Factor computes the tiled QR factorization A = Q·R of an m×n matrix
// (any m, n ≥ 1). A is not modified. cfg must already carry defaulted,
// validated options.
func Factor[T vec.Scalar](a *tile.Dense[T], cfg Config) (*Factorization[T], error) {
	f := &Factorization[T]{}
	if err := FactorInto(f, a, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto factors a into f, reusing f's tile arena, T-factor storage,
// task DAG and execution plan when the matrix shape and the structural
// options (algorithm, kernels, tile/inner-block sizes, tree parameters)
// match the previous factorization; otherwise the storage is rebuilt.
// Execution placement (Env) and tracing may change freely between calls.
// Steady-state refactorization performs O(1) allocations — none of them
// proportional to the matrix or task count. a is copied into tile layout
// inside the DAG, each tile by the first task that writes it, and is read
// only until FactorInto returns.
//
// On error, any previous factorization held by f is gone (the reused
// storage was overwritten): f refuses to serve results until a subsequent
// FactorInto/Refactor succeeds, which rebuilds storage from scratch.
func FactorInto[T vec.Scalar](f *Factorization[T], a *tile.Dense[T], cfg Config) error {
	key := reuseKey{
		m: a.Rows, n: a.Cols,
		algorithm: cfg.Algorithm, kernels: cfg.Kernels, coreOpts: cfg.CoreOpts,
		tileSize: cfg.TileSize, innerBlock: cfg.InnerBlock,
	}
	// Input validation happens before any state is touched: a rejected
	// matrix leaves a previously valid factorization fully intact.
	if cfg.CheckHealth {
		if err := CheckFinite("input matrix", a); err != nil {
			return err
		}
	}
	// A factorization left invalid by a failed run never reuses its
	// half-written storage: rebuild from scratch.
	if f.mat == nil || !f.valid || f.key != key {
		if err := f.rebuild(cfg, key); err != nil {
			return err
		}
	}
	f.env = cfg.Env
	f.traceOn = cfg.Trace
	f.checkOn = cfg.CheckHealth
	f.trace = nil
	// The reused arena is overwritten in place: a failed execution leaves
	// half-factored (or never filled) tiles, so the factorization is marked
	// invalid until a run completes (R/Apply/SolveLS refuse to serve it) and
	// the next FactorInto rebuilds from scratch instead of reusing.
	f.valid = false
	// A one-shot DAG first-writes every tile of its grid, so the fill
	// overwrites every element of every tile, and each T-factor position a
	// kernel reads is written by the factor kernel of the same run before
	// any applier reads it, so no zeroing of reused storage is needed.
	trace, err := ExecTasks[T](f, f.plan, f.env,
		RunOpts{Ctx: cfg.Ctx, Trace: cfg.Trace, Check: cfg.CheckHealth, Stats: cfg.Stats},
		Fill[T]{Src: *a, NB: f.grid.NB, Scale: 1}, f.ib, f.wsLen)
	if err != nil {
		f.ferr = err
		return err
	}
	f.valid = true
	f.ferr = nil
	f.trace = trace
	return nil
}

// RefactorCtx re-runs the factorization over new matrix data, reusing
// every internal buffer when a has the shape of the previous factorization
// (the zero-allocation serving path; a different shape rebuilds storage).
// A RefactorCtx after a failed or cancelled execution rebuilds storage
// and, on success, clears the sticky failure state. ctx applies to this
// execution only and is never retained by the factorization. A nil a is
// rejected before any state is touched.
func (f *Factorization[T]) RefactorCtx(ctx context.Context, a *tile.Dense[T]) error {
	if a == nil {
		return fmt.Errorf("tiledqr: Refactor: a must not be nil")
	}
	if f.mat == nil {
		return errEmpty("Refactor")
	}
	cfg := Config{
		Algorithm: f.key.algorithm, Kernels: f.key.kernels, CoreOpts: f.key.coreOpts,
		TileSize: f.key.tileSize, InnerBlock: f.key.innerBlock, Env: f.env,
		Trace: f.traceOn, Ctx: ctx, CheckHealth: f.checkOn,
	}
	return FactorInto(f, a, cfg)
}

// rebuild allocates the factorization's storage for a new structural key:
// DAG, execution plan, and one contiguous arena holding every tile payload
// followed by every T factor (replacing the former p×q individual
// allocations).
func (f *Factorization[T]) rebuild(cfg Config, key reuseKey) error {
	g := tile.NewGrid(key.m, key.n, cfg.TileSize)
	list, err := core.Generate(cfg.Algorithm, g.P, g.Q, cfg.CoreOpts)
	if err != nil {
		return err
	}
	f.grid = g
	f.dag = core.BuildDAG(list, cfg.Kernels)
	f.plan = sched.NewPlan(f.dag)
	f.ib = cfg.InnerBlock
	// Size worker scratch by the tiles that actually occur: a TileSize far
	// beyond the matrix (legal — the grid is then a single tile) must not
	// inflate the quadratic micro-GEMM pack bound inside WorkLen.
	f.wsLen = kernel.WorkLen(min(cfg.TileSize, max(g.M, g.N)), f.ib)
	f.key = key

	tNeed := 0
	for _, t := range f.dag.Tasks {
		switch t.Kind {
		case core.KGEQRT, core.KTSQRT, core.KTTQRT:
			tNeed += f.ib * g.TileCols(t.K-1)
		}
	}
	f.arena = make([]T, g.M*g.N+tNeed)
	f.mat = tile.NewMatrixOn[T](g, f.arena[:g.M*g.N])
	f.tg = make([][]T, g.P*g.Q)
	f.t2 = make([][]T, g.P*g.Q)
	off := g.M * g.N
	carve := func(k int) []T {
		n := f.ib * g.TileCols(k-1)
		s := f.arena[off : off+n : off+n]
		off += n
		return s
	}
	for _, t := range f.dag.Tasks {
		switch t.Kind {
		case core.KGEQRT:
			f.tg[f.tidx(t.I, t.K)] = carve(t.K)
		case core.KTSQRT, core.KTTQRT:
			f.t2[f.tidx(t.I, t.K)] = carve(t.K)
		}
	}
	return nil
}

// tidx maps 1-based tile coordinates to storage index.
func (f *Factorization[T]) tidx(i, k int) int { return (i-1)*f.grid.Q + (k - 1) }

// TileAt, TFactor, T2Factor and KCols implement Source with the plain grid
// mapping (tile row i is tile row i).
func (f *Factorization[T]) TileAt(i, k int) *tile.Dense[T] { return f.mat.Tile(i-1, k-1) }

// TFactor returns the GEQRT T-factor storage of tile (i, k).
func (f *Factorization[T]) TFactor(i, k int) []T { return f.tg[f.tidx(i, k)] }

// T2Factor returns the TSQRT/TTQRT T-factor storage of tile (i, k).
func (f *Factorization[T]) T2Factor(i, k int) []T { return f.t2[f.tidx(i, k)] }

// KCols returns the column count of tile column k (1-based).
func (f *Factorization[T]) KCols(k int) int { return f.grid.TileCols(k - 1) }

// scratchPools holds the ApplyQ/ApplyQH/SolveLS scratch, one pool per
// scalar domain (package-level variables cannot be generic; indexed by
// vec.Prec like the worker workspaces). They are package-level on purpose:
// a sync.Pool embedded in a Factorization is registered with the runtime on
// its first Put and keeps its owner — tile arena included — reachable until
// two garbage collections later, so cold factorizations that each solve
// once pile up dead arenas.
var scratchPools [4]sync.Pool

// getScratch fetches a pooled scratch slice of at least n elements;
// putScratch returns it. Steady-state Q applications and solves allocate
// nothing here.
func getScratch[T vec.Scalar](n int) *[]T {
	p, _ := scratchPools[vec.Prec[T]()].Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if len(*p) < n {
		*p = make([]T, n)
	}
	return p
}

func putScratch[T vec.Scalar](p *[]T) { scratchPools[vec.Prec[T]()].Put(p) }

// errEmpty is what every entry point but FactorInto reports on a
// factorization that has never been factored (the zero value).
func errEmpty(op string) error {
	return fmt.Errorf("tiledqr: %s on an empty factorization (use Factor or FactorInto first)", op)
}

// errInvalid is the state guard shared by every factor accessor: the zero
// value holds nothing, and a failed Factor/FactorInto/Refactor leaves
// half-factored tiles that must never be served as results.
func (f *Factorization[T]) errInvalid(op string) error {
	if f.valid {
		return nil
	}
	if f.mat == nil {
		return errEmpty(op)
	}
	if f.ferr != nil {
		return fmt.Errorf("tiledqr: %s on an invalid factorization (the last factorization attempt failed: %w; re-run Factor, FactorInto or Refactor)", op, f.ferr)
	}
	return fmt.Errorf("tiledqr: %s on an invalid factorization (the last factorization attempt failed; re-run Factor or FactorInto)", op)
}

// Err returns the cause of the last failed execution (nil when the
// factorization is valid) — the sticky error the accessors wrap — or the
// empty-factorization error on a value that was never factored.
func (f *Factorization[T]) Err() error {
	if f.valid {
		return nil
	}
	if f.mat == nil {
		return errEmpty("Err")
	}
	return f.ferr
}

// R returns the min(m,n)×n upper triangular (trapezoidal) factor.
func (f *Factorization[T]) R() *tile.Dense[T] {
	if err := f.errInvalid("R"); err != nil {
		panic(err) // value-returning accessor: fail loudly, never silently serve garbage
	}
	r := tile.NewDense[T](min(f.grid.M, f.grid.N), f.grid.N)
	f.copyR(r.Data, r.Stride)
	return r
}

// copyR writes the upper triangle (trapezoid) of R into dst at row stride
// ldr, one copy per tile-row segment; dst's strictly lower part is not
// touched.
func (f *Factorization[T]) copyR(dst []T, ldr int) {
	nb, k := f.grid.NB, min(f.grid.M, f.grid.N)
	for i := 0; i < k; i++ {
		ti, li := i/nb, i%nb
		for tj := ti; tj < f.grid.Q; tj++ {
			t := f.mat.Tile(ti, tj)
			start := 0
			if tj == ti {
				start = li // diagonal tile: below the diagonal lie reflectors
			}
			copy(dst[i*ldr+tj*nb+start:i*ldr+tj*nb+t.Cols], t.Data[li*t.Stride+start:li*t.Stride+t.Cols])
		}
	}
}

// Apply overwrites b (m×nrhs) with Qᴴ·b (trans) or Q·b by replaying the
// factorization's transformations. A non-nil ctx cancels the replay at a
// task boundary; b is then partially transformed and must be discarded.
func (f *Factorization[T]) Apply(ctx context.Context, b *tile.Dense[T], trans bool) error {
	if err := f.errInvalid("ApplyQ"); err != nil {
		return err
	}
	if b == nil {
		return fmt.Errorf("tiledqr: ApplyQ: b must not be nil")
	}
	if b.Rows != f.grid.M {
		return fmt.Errorf("tiledqr: ApplyQ: b has %d rows, want %d", b.Rows, f.grid.M)
	}
	ws := getScratch[T](f.applyWorkLen(b.Cols))
	defer putScratch(ws)
	return f.replay(ctx, b.Data, b.Stride, b.Cols, trans, *ws)
}

// applyWorkLen is the kernel scratch a replay over nrhs columns needs.
func (f *Factorization[T]) applyWorkLen(nrhs int) int {
	return kernel.ApplyWorkLen(f.grid.NB, f.ib, max(nrhs, 1))
}

// replay runs Replay over the m×nrhs block b (row stride ldb) with the
// plain grid mapping: tile row i (1-based) is rows (i−1)·nb onward.
func (f *Factorization[T]) replay(ctx context.Context, b []T, ldb, nrhs int, trans bool, ws []T) error {
	row := func(i int) ([]T, int) { return b[(i-1)*f.grid.NB*ldb:], ldb }
	return Replay[T](ctx, f, f.dag, trans, row, nrhs, f.ib, ws)
}

// Q returns the full m×m orthogonal (unitary) factor, built by applying Q
// to the identity; O(m³) work — prefer ThinQ or Apply for large m.
func (f *Factorization[T]) Q() *tile.Dense[T] {
	q := tile.Identity[T](f.grid.M)
	if err := f.Apply(nil, q, false); err != nil {
		panic(err) // identity always has the right shape
	}
	return q
}

// ThinQ returns the first min(m,n) columns of Q (the orthonormal basis of
// A's column span when A has full column rank).
func (f *Factorization[T]) ThinQ() *tile.Dense[T] {
	k := min(f.grid.M, f.grid.N)
	e := tile.NewDense[T](f.grid.M, k)
	for i := 0; i < k; i++ {
		e.Set(i, i, 1)
	}
	if err := f.Apply(nil, e, false); err != nil {
		panic(err)
	}
	return e
}

// SolveLS solves the least-squares problem min‖A·x − b‖₂ for each column of
// b (m×nrhs), returning the n×nrhs solution. Requires m ≥ n and a
// nonsingular R. A non-nil ctx cancels the Qᴴ·b replay at a task boundary.
func (f *Factorization[T]) SolveLS(ctx context.Context, b *tile.Dense[T]) (*tile.Dense[T], error) {
	if err := f.errInvalid("SolveLS"); err != nil {
		return nil, err
	}
	m, n := f.grid.M, f.grid.N
	if m < n {
		return nil, fmt.Errorf("tiledqr: SolveLS needs m ≥ n (have %d×%d)", m, n)
	}
	if b == nil {
		return nil, fmt.Errorf("tiledqr: SolveLS: b must not be nil")
	}
	if b.Rows != m {
		return nil, fmt.Errorf("tiledqr: SolveLS: b has %d rows, want %d", b.Rows, m)
	}
	// One pooled block holds everything but the result: kernel scratch, the
	// working copy of b, the n×n copy of R's upper triangle and one solution
	// column.
	nrhs := b.Cols
	wsLen := f.applyWorkLen(nrhs)
	scratch := getScratch[T](wsLen + m*nrhs + n*n + n)
	defer putScratch(scratch)
	ws, rest := (*scratch)[:wsLen], (*scratch)[wsLen:]
	qtb, rest := rest[:m*nrhs], rest[m*nrhs:]
	r, xcol := rest[:n*n], rest[n*n:n*n+n]
	for i := 0; i < m; i++ {
		copy(qtb[i*nrhs:i*nrhs+nrhs], b.Data[i*b.Stride:i*b.Stride+nrhs])
	}
	if err := f.replay(ctx, qtb, nrhs, nrhs, true, ws); err != nil {
		return nil, err
	}
	f.copyR(r, n)
	x := tile.NewDense[T](n, nrhs)
	// Row-oriented back-substitution (shared with the streaming path).
	if err := SolveUpper(n, nrhs, r, n, qtb, nrhs, x.Data, x.Stride, xcol); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveUpper solves R·X = B by row-oriented back-substitution: R is n×n
// upper triangular with row stride ldr (its strictly lower part is never
// read), B provides the top n rows of the right-hand sides at stride ldb,
// and the solution is written to x at stride ldx. xcol is an n-element
// scratch holding each solution column contiguously so every inner product
// runs over a contiguous row of R via the unconjugated vec.Dot. Shared by
// SolveLS, the streaming core and the distributed coordinator.
func SolveUpper[T vec.Scalar](n, nrhs int, r []T, ldr int, b []T, ldb int,
	x []T, ldx int, xcol []T) error {
	for c := 0; c < nrhs; c++ {
		for i := n - 1; i >= 0; i-- {
			row := r[i*ldr : i*ldr+n]
			s := b[i*ldb+c] - vec.Dot(row[i+1:], xcol[i+1:n])
			d := row[i]
			if d == 0 {
				return fmt.Errorf("tiledqr: SolveLS: R(%d,%d) = 0, matrix is rank deficient", i, i)
			}
			xcol[i] = s / d
		}
		for i := 0; i < n; i++ {
			x[i*ldx+c] = xcol[i]
		}
	}
	return nil
}

// Trace returns the execution trace (nil unless Config.Trace was set).
func (f *Factorization[T]) Trace() *sched.Trace { return f.trace }

// GanttChart renders an ASCII Gantt chart of the traced execution (one row
// per worker, `width` time columns). Requires Config.Trace.
func (f *Factorization[T]) GanttChart(width int) string {
	if f.trace == nil || f.trace.Spans == nil {
		return "(run with Options.Trace to record a Gantt chart)\n"
	}
	return f.trace.Gantt(f.dag, width)
}

// Utilization returns per-worker busy fractions and overall parallel
// efficiency of the traced execution. Requires Config.Trace.
func (f *Factorization[T]) Utilization() sched.Utilization {
	if f.trace == nil {
		return sched.Utilization{}
	}
	return f.trace.Utilization()
}

// TaskCount returns the number of kernel tasks the factorization executed
// (0 before the first factorization).
func (f *Factorization[T]) TaskCount() int {
	if f.dag == nil {
		return 0
	}
	return f.dag.NumTasks()
}

// DAG exposes the executed task DAG (trace validation in tests).
func (f *Factorization[T]) DAG() *core.DAG { return f.dag }

// Grid returns the tile grid dimensions (p×q) and tile size.
func (f *Factorization[T]) Grid() (p, q, nb int) { return f.grid.P, f.grid.Q, f.grid.NB }
