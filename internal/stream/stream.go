// Package stream is the reduction core of the streaming TSQR subsystem: it
// maintains a resident n×n upper triangular factor (and optionally Qᵀb for
// online least squares) while row batches are appended, in O(n² + batch)
// memory regardless of how many rows have been ingested.
//
// Each appended batch is tiled, panel-factored with GEQRT, and merged into
// the resident triangle through the triangle-on-triangle kernels of the
// paper (TPQRT/TPMQRT with l = m) along the task DAG of
// core.BuildStreamDAG, executed by internal/sched with the same
// critical-path priorities as a one-shot factorization. The package is
// generic over all four scalar domains and dispatches tasks through the
// shared engine.Source loop — the Core's only jobs are batch staging, the
// stacked tile addressing, and the Qᵀb/residual bookkeeping.
//
// Beyond pure accretion the Core supports revocation: with retention
// enabled (Config.Window) appended batches are kept in a compact row
// history, rows can be removed again by a hyperbolic downdate of the
// resident triangle (see downdate.go), a sliding window evicts the oldest
// rows automatically, and an exponential forgetting factor decays the
// weight of old rows geometrically per append.
package stream

import (
	"context"
	"fmt"
	"math"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// seqTaskThreshold is the DAG size below which a batch merge runs on the
// scheduler's deterministic sequential path: tiny merges (a one-tile-row
// batch into a narrow triangle) are dominated by goroutine wake-up cost.
const seqTaskThreshold = 64

// RetainAll configures Config.Window to retain the full row history without
// a sliding window: rows are kept (and memory grows with them) until the
// caller removes them with Downdate.
const RetainAll = -1

// Config carries the streaming parameters beyond the column count.
type Config struct {
	NB, IB  int
	Kernels core.Kernels
	Env     engine.Env
	Check   bool // validate batches, fail fast on breakdown

	// Window selects the retention policy: 0 retains nothing (appends are
	// irrevocable, the historical behavior), a positive value keeps a
	// sliding window of the most recent Window rows (older rows are
	// downdated away automatically after each append), and RetainAll keeps
	// every row for manual Downdate calls.
	Window int
	// Forget is the exponential forgetting factor λ ∈ (0, 1]: before each
	// append the resident R and Qᵀb are scaled by √λ, so a row appended k
	// batches ago carries weight λ^(k/2). Zero (or 1) disables forgetting.
	Forget float64
}

// histBatch is one retained row batch: a compact copy of its rows (and RHS
// rows when the stream tracks them) plus the forgetting weight accumulated
// since it was appended. Downdating consumes batches head-first.
type histBatch[T vec.Scalar] struct {
	data  []T // rows×n, stride n
	rhs   []T // rows×nrhs, stride nrhs (nil when no RHS is tracked)
	rows  int
	scale float64
}

// Core is the domain-generic streaming state: the resident triangle, the
// retained Qᵀb block, the optional row history, and cached merge plans
// keyed by batch tile height. Kernel workspaces live with the executing
// workers (engine.WorkerWS), and per-append staging (the tiled batch copy
// and its T factors) is borrowed from a package-level pool shared by every
// stream, so the idle footprint of one Core is O(n² + window): the
// triangle, Qᵀb, solve/downdate scratch, and the retained rows.
type Core[T vec.Scalar] struct {
	n, nb, ib int
	env       engine.Env
	kernels   core.Kernels
	check     bool // Options.CheckHealth: validate batches, fail fast on breakdown

	window int     // retention policy (see Config.Window)
	forget float64 // per-append forgetting factor λ (0 = off)

	// err is the stream's sticky failure: a merge that errors, panics, or is
	// cancelled mid-DAG leaves the resident triangle (and Qᵀb) partially
	// transformed, so every later operation refuses with the original cause.
	// There is no recovery path — a poisoned stream must be replaced.
	err error

	grid tile.Grid       // q×q resident grid over the n×n triangle
	res  []tile.Dense[T] // row-major q×q; only tiles with i ≤ k are allocated

	qtb  []T // top n rows of Qᵀb, row-major with stride nrhs
	nrhs int

	rows   int64   // rows currently represented (ingested − downdated)
	resid2 float64 // Σ|discarded Qᵀb components|² = ‖b − A·X‖_F² of the represented system
	bnorm2 float64 // Σ scale²·‖rhs rows‖² of the represented system

	hist []histBatch[T] // retained batches, oldest first (retention only)

	plans map[int]*sched.Plan // merge execution plans keyed by batch tile rows pb
	rws   []T                 // replay scratch for the Qᵀb fold; its length also sizes the merge workers' scratch

	// cur points at the pooled staging while a merge is in flight (the
	// Source methods need it).
	cur *staging[T]

	rwork []T // contiguous R for back-substitution
	xcol  []T // back-substitution column scratch

	// Downdate scratch, allocated on first use: the packed triangle and Qᵀb
	// copies rotations run on (committed only if every removal succeeds),
	// and the row being annihilated.
	dR, dQTB, zrow, brow []T
}

// NewCore creates the streaming state for an n-column system. cfg.Env
// selects where merge DAGs execute (shared runtime, per-call pool, or
// inline).
func NewCore[T vec.Scalar](n int, cfg Config) (*Core[T], error) {
	if n < 1 {
		return nil, fmt.Errorf("tiledqr: stream: need at least one column (n=%d)", n)
	}
	if cfg.NB < 1 || cfg.IB < 1 {
		return nil, fmt.Errorf("tiledqr: stream: invalid nb=%d ib=%d", cfg.NB, cfg.IB)
	}
	if cfg.Window < RetainAll {
		return nil, fmt.Errorf("tiledqr: stream: invalid window %d", cfg.Window)
	}
	if cfg.Forget != 0 && (cfg.Forget <= 0 || cfg.Forget > 1) {
		return nil, fmt.Errorf("tiledqr: stream: forgetting factor %g outside (0, 1]", cfg.Forget)
	}
	if cfg.Forget == 1 {
		cfg.Forget = 0 // λ = 1 is a no-op; skip the scaling pass entirely
	}
	g := tile.NewGrid(n, n, cfg.NB)
	c := &Core[T]{
		n: n, nb: cfg.NB, ib: cfg.IB, env: cfg.Env, kernels: cfg.Kernels, check: cfg.Check,
		window: cfg.Window, forget: cfg.Forget,
		grid:  g,
		res:   make([]tile.Dense[T], g.Q*g.Q),
		plans: make(map[int]*sched.Plan),
		// Batch tiles are up to NB rows tall however narrow the system is.
		rws: make([]T, kernel.FactorWorkLen(cfg.NB, min(cfg.NB, n), cfg.IB)),
	}
	for i := 0; i < g.Q; i++ {
		for k := i; k < g.Q; k++ {
			r, cc := g.TileRows(i), g.TileCols(k)
			c.res[i*g.Q+k] = tile.Dense[T]{Rows: r, Cols: cc, Stride: cc, Data: make([]T, r*cc)}
		}
	}
	return c, nil
}

// N returns the column count of the streamed system.
func (c *Core[T]) N() int { return c.n }

// Window returns the retention policy (see Config.Window).
func (c *Core[T]) Window() int { return c.window }

// Err returns the stream's sticky failure (nil while healthy). Once a merge
// errors, panics, or is cancelled mid-DAG, the retained state is partially
// transformed: every later append and result accessor fails with this cause,
// and there is no recovery path — a poisoned stream must be replaced.
func (c *Core[T]) Err() error { return c.err }

// poisoned records a failure that left retained state partially transformed.
func (c *Core[T]) poisoned(err error) error {
	c.err = fmt.Errorf("tiledqr: stream failed (a previous operation did not complete: %w); results are unavailable and further appends are unsupported", err)
	return c.err
}

// Rows returns the number of rows the resident factorization currently
// represents: every row ingested minus every row downdated away.
func (c *Core[T]) Rows() int64 { return c.rows }

// NRHS returns the number of tracked right-hand sides (0 when none).
func (c *Core[T]) NRHS() int { return c.nrhs }

// ResidualNorm returns ‖b − A·X‖_F of the least-squares system currently
// represented, summed over all tracked right-hand-side columns: the norm of
// the Qᵀb components rotated out of the retained top block. Zero when no
// right-hand side is tracked.
func (c *Core[T]) ResidualNorm() float64 { return math.Sqrt(c.resid2) }

// Footprint returns the number of scalars retained across appends: resident
// tiles, Qᵀb, solve and downdate scratch, and the row history. With a
// sliding window the total is O(n² + window); without retention it is
// O(n²) plus nothing that grows with rows ingested (per-append staging is
// pooled across streams, not owned here).
func (c *Core[T]) Footprint() int {
	total := len(c.qtb) + len(c.rwork) + len(c.xcol) + len(c.rws) +
		len(c.dR) + len(c.dQTB) + len(c.zrow) + len(c.brow)
	for i := range c.res {
		total += len(c.res[i].Data)
	}
	for i := range c.hist {
		total += len(c.hist[i].data) + len(c.hist[i].rhs)
	}
	return total
}

// grow returns buf resliced to n elements, reallocating only when the
// capacity seen so far is exceeded.
func grow[S any](buf []S, n int) []S {
	if cap(buf) < n {
		return make([]S, n)
	}
	return buf[:n]
}

// tileBatch copies an r×n batch (row stride ld), scaled by scale, into tile
// layout in the pooled staging.
func (c *Core[T]) tileBatch(st *staging[T], r int, data []T, ld int, scale float64) {
	g := tile.NewGrid(r, c.n, c.nb)
	st.g = g
	st.tiles = grow(st.tiles, g.P*g.Q)
	st.arena = grow(st.arena, r*c.n)
	f := vec.FromParts[T](scale, 0)
	off := 0
	for ti := 0; ti < g.P; ti++ {
		for tk := 0; tk < g.Q; tk++ {
			tr, tc := g.TileRows(ti), g.TileCols(tk)
			t := tile.Dense[T]{Rows: tr, Cols: tc, Stride: tc, Data: st.arena[off : off+tr*tc]}
			off += tr * tc
			r0, c0 := ti*c.nb, tk*c.nb
			for rr := 0; rr < tr; rr++ {
				dst := t.Data[rr*tc : rr*tc+tc]
				src := data[(r0+rr)*ld+c0 : (r0+rr)*ld+c0+tc]
				if scale == 1 {
					copy(dst, src)
				} else {
					for j := range dst {
						dst[j] = f * src[j]
					}
				}
			}
			st.tiles[ti*g.Q+tk] = t
		}
	}
}

// plan returns the cached merge execution plan for a pb-tile-row batch.
// The cache is keyed by batch height only — a handful of entries for any
// realistic workload, never dependent on the number of batches ingested.
func (c *Core[T]) plan(pb int) *sched.Plan {
	if p, ok := c.plans[pb]; ok {
		return p
	}
	p := sched.NewPlan(core.BuildStreamDAG(c.grid.Q, pb, c.kernels))
	c.plans[pb] = p
	return p
}

// TileAt implements engine.Source with the stacked addressing: tile rows
// 1..q are the resident triangle, rows q+1..q+pb the in-flight batch.
func (c *Core[T]) TileAt(i, k int) *tile.Dense[T] {
	if i <= c.grid.Q {
		return &c.res[(i-1)*c.grid.Q+(k-1)]
	}
	return &c.cur.tiles[(i-c.grid.Q-1)*c.grid.Q+(k-1)]
}

// TFactor returns the GEQRT T-factor storage of stacked tile (i, k).
func (c *Core[T]) TFactor(i, k int) []T { return c.cur.tg[c.tidx(i, k)] }

// T2Factor returns the TSQRT/TTQRT T-factor storage of stacked tile (i, k).
func (c *Core[T]) T2Factor(i, k int) []T { return c.cur.t2[c.tidx(i, k)] }

// KCols returns the column count of tile column k (1-based).
func (c *Core[T]) KCols(k int) int { return c.grid.TileCols(k - 1) }

func (c *Core[T]) tidx(i, k int) int { return (i-1)*c.grid.Q + (k - 1) }

// allocT carves the per-task T factor storage demanded by a merge DAG out
// of the pooled arena. Only batch rows ever carry factors (the resident
// triangle is never re-factored), so this is O(batch · n · ib/nb). No
// zeroing is needed: every T position a kernel reads (the upper triangle of
// each panel block) is written by the factor kernel of the same append
// before any applier reads it.
func (c *Core[T]) allocT(d *core.DAG, st *staging[T]) {
	p := c.grid.Q + st.g.P
	st.tg = grow(st.tg, p*c.grid.Q)
	st.t2 = grow(st.t2, p*c.grid.Q)
	need := 0
	for _, t := range d.Tasks {
		switch t.Kind {
		case core.KGEQRT, core.KTSQRT, core.KTTQRT:
			need += c.ib * c.grid.TileCols(t.K-1)
		}
	}
	st.tArena = grow(st.tArena, need)
	off := 0
	carve := func(k int) []T {
		n := c.ib * c.grid.TileCols(k-1)
		s := st.tArena[off : off+n]
		off += n
		return s
	}
	for _, t := range d.Tasks {
		switch t.Kind {
		case core.KGEQRT:
			st.tg[c.tidx(t.I, t.K)] = carve(t.K)
		case core.KTSQRT, core.KTTQRT:
			st.t2[c.tidx(t.I, t.K)] = carve(t.K)
		}
	}
}

// Append merges an r×n row batch (row stride ld) into the resident
// triangle, and, when the stream tracks right-hand sides, folds the
// matching r×nrhs RHS rows (stride ldr) into the retained Qᵀb block. The
// caller's slices are never modified. rhs must be nil exactly when the
// stream tracks no RHS; tracking is decided by the first append. Append is
// not safe for concurrent use. A non-nil ctx cancels the merge: validation
// failures leave the stream intact, but a cancellation (or task failure)
// once the merge DAG is running poisons the stream permanently.
//
// Under a forgetting factor the resident state is decayed by √λ first;
// with retention on, the batch is recorded in the row history, and a
// sliding window then downdates the oldest rows beyond the window.
func (c *Core[T]) Append(ctx context.Context, r int, data []T, ld int, rhs []T, ldr, nrhs int) error {
	if c.err != nil {
		return c.err
	}
	if r < 1 {
		return fmt.Errorf("tiledqr: stream: batch must have at least one row")
	}
	if rhs == nil && c.nrhs > 0 {
		return fmt.Errorf("tiledqr: stream: this stream tracks %d right-hand side(s); use AppendRHS", c.nrhs)
	}
	if rhs != nil {
		if nrhs < 1 {
			return fmt.Errorf("tiledqr: stream: right-hand side must have at least one column")
		}
		// Input validation precedes every retained-state mutation: a
		// rejected batch leaves the stream healthy and serving results.
		if c.check {
			if err := engine.CheckFinite("appended right-hand side",
				&tile.Dense[T]{Rows: r, Cols: nrhs, Stride: ldr, Data: rhs}); err != nil {
				return err
			}
		}
		switch {
		case c.nrhs == 0 && c.rows > 0:
			return fmt.Errorf("tiledqr: stream: right-hand sides must be supplied from the first batch onwards")
		case c.nrhs == 0:
			c.nrhs = nrhs
			c.qtb = make([]T, c.n*nrhs)
		case nrhs != c.nrhs:
			return fmt.Errorf("tiledqr: stream: right-hand side has %d columns, want %d", nrhs, c.nrhs)
		}
	}
	if c.check {
		if err := engine.CheckFinite("appended batch",
			&tile.Dense[T]{Rows: r, Cols: c.n, Stride: ld, Data: data}); err != nil {
			return err
		}
	}

	if c.forget > 0 {
		c.scaleForget(c.forget)
	}
	if c.window != 0 {
		c.record(r, data, ld, rhs, ldr)
	}
	if err := c.merge(ctx, r, data, ld, rhs, ldr, 1); err != nil {
		// The merge DAG mutates the resident triangle in place, so any
		// failure past this point leaves it partially transformed: poison.
		return c.poisoned(err)
	}
	if c.window > 0 && c.rows > int64(c.window) {
		return c.Downdate(ctx, int(c.rows)-c.window)
	}
	return nil
}

// merge is the retention-blind core of Append (shared with the rebuild
// fallback of Downdate): tile the batch scaled by scale, execute the merge
// DAG against the resident triangle, fold the RHS, and advance the row
// count. The caller poisons the stream on error.
func (c *Core[T]) merge(ctx context.Context, r int, data []T, ld int, rhs []T, ldr int, scale float64) error {
	st := getStaging[T]()
	defer func() {
		c.cur = nil
		putStaging(st)
	}()
	c.tileBatch(st, r, data, ld, scale)
	p := c.plan(st.g.P)
	d := p.DAG()
	c.allocT(d, st)
	c.cur = st
	env := c.env
	if d.NumTasks() < seqTaskThreshold {
		// Tiny merges are dominated by cross-goroutine wake-up cost: run
		// them inline on the appending goroutine.
		env = engine.Env{Workers: 1}
	}
	if _, err := engine.ExecTasks[T](c, p, env,
		engine.RunOpts{Ctx: ctx, Check: c.check}, c.ib, len(c.rws)); err != nil {
		return err
	}
	if c.nrhs > 0 {
		if err := c.applyRHS(ctx, d, r, rhs, ldr, scale); err != nil {
			return err
		}
	}
	c.rows += int64(r)
	return nil
}

// record appends a compact copy of the batch (and its RHS rows) to the row
// history at full weight.
func (c *Core[T]) record(r int, data []T, ld int, rhs []T, ldr int) {
	hb := histBatch[T]{rows: r, scale: 1, data: make([]T, r*c.n)}
	for i := 0; i < r; i++ {
		copy(hb.data[i*c.n:(i+1)*c.n], data[i*ld:i*ld+c.n])
	}
	if rhs != nil {
		nrhs := c.nrhs
		hb.rhs = make([]T, r*nrhs)
		for i := 0; i < r; i++ {
			copy(hb.rhs[i*nrhs:(i+1)*nrhs], rhs[i*ldr:i*ldr+nrhs])
		}
	}
	c.hist = append(c.hist, hb)
}

// scaleForget decays the represented system by the forgetting factor λ:
// the resident triangle and Qᵀb scale by √λ (so the implicit rows do too),
// the squared norms by λ, and every retained batch's weight by √λ.
func (c *Core[T]) scaleForget(lambda float64) {
	s := math.Sqrt(lambda)
	f := vec.FromParts[T](s, 0)
	for i := range c.res {
		for j := range c.res[i].Data {
			c.res[i].Data[j] *= f
		}
	}
	for j := range c.qtb {
		c.qtb[j] *= f
	}
	c.resid2 *= lambda
	c.bnorm2 *= lambda
	for i := range c.hist {
		c.hist[i].scale *= s
	}
}

// Forget applies one decay step with factor lambda ∈ (0, 1] immediately —
// the manual form of Config.Forget (which decays before every append).
// lambda = 1 is a no-op.
func (c *Core[T]) Forget(lambda float64) error {
	if c.err != nil {
		return c.err
	}
	if lambda <= 0 || lambda > 1 {
		return fmt.Errorf("tiledqr: stream: forgetting factor %g outside (0, 1]", lambda)
	}
	if lambda != 1 {
		c.scaleForget(lambda)
	}
	return nil
}

// applyRHS replays the merge transformations over the stacked right-hand
// side [qtb; scale·(batch rhs)] via the shared engine.Replay (task IDs are
// topological). The batch rows' leftover components are exactly the Qᵀb
// coordinates orthogonal to the retained top block; their squared norm
// accumulates into the running least-squares residual, and the incoming
// rows' squared norm into the represented ‖b‖².
func (c *Core[T]) applyRHS(ctx context.Context, d *core.DAG, r int, rhs []T, ldr int, scale float64) error {
	nrhs := c.nrhs
	c.cur.rhs = grow(c.cur.rhs, r*nrhs)
	scratch := c.cur.rhs
	f := vec.FromParts[T](scale, 0)
	for i := 0; i < r; i++ {
		dst := scratch[i*nrhs : i*nrhs+nrhs]
		src := rhs[i*ldr : i*ldr+nrhs]
		if scale == 1 {
			copy(dst, src)
		} else {
			for j := range dst {
				dst[j] = f * src[j]
			}
		}
	}
	for _, v := range scratch {
		c.bnorm2 += vec.Abs2(v)
	}
	// row returns the stacked RHS rows of tile row i.
	row := func(i int) ([]T, int) {
		if i <= c.grid.Q {
			return c.qtb[(i-1)*c.nb*nrhs:], nrhs
		}
		return scratch[(i-c.grid.Q-1)*c.nb*nrhs:], nrhs
	}
	if err := engine.Replay[T](ctx, c, d, true, row, nrhs, c.ib, c.rws); err != nil {
		return err
	}
	for _, v := range scratch {
		c.resid2 += vec.Abs2(v)
	}
	return nil
}

// CopyR writes the resident upper triangular factor into dst (n×n, row
// stride ld ≥ n). Only the upper triangle is written; callers that need
// explicit zeros below the diagonal must start from a zeroed dst.
func (c *Core[T]) CopyR(dst []T, ld int) {
	q, nb := c.grid.Q, c.nb
	for ti := 0; ti < q; ti++ {
		for tk := ti; tk < q; tk++ {
			t := &c.res[ti*q+tk]
			r0, c0 := ti*nb, tk*nb
			for rr := 0; rr < t.Rows; rr++ {
				start := 0
				if ti == tk {
					start = rr // diagonal tile: skip the zero lower part
				}
				copy(dst[(r0+rr)*ld+c0+start:(r0+rr)*ld+c0+t.Cols],
					t.Data[rr*t.Stride+start:rr*t.Stride+t.Cols])
			}
		}
	}
}

// scatterR writes the upper triangle of src (n×n, row stride ld) back into
// the resident tiles — the inverse of CopyR, used to commit a successful
// downdate. The zero lower parts of diagonal tiles are left untouched.
func (c *Core[T]) scatterR(src []T, ld int) {
	q, nb := c.grid.Q, c.nb
	for ti := 0; ti < q; ti++ {
		for tk := ti; tk < q; tk++ {
			t := &c.res[ti*q+tk]
			r0, c0 := ti*nb, tk*nb
			for rr := 0; rr < t.Rows; rr++ {
				start := 0
				if ti == tk {
					start = rr
				}
				copy(t.Data[rr*t.Stride+start:rr*t.Stride+t.Cols],
					src[(r0+rr)*ld+c0+start:(r0+rr)*ld+c0+t.Cols])
			}
		}
	}
}

// CopyQTB writes the retained top n rows of Qᵀb into dst (n×nrhs, row
// stride ld ≥ nrhs).
func (c *Core[T]) CopyQTB(dst []T, ld int) {
	for i := 0; i < c.n; i++ {
		copy(dst[i*ld:i*ld+c.nrhs], c.qtb[i*c.nrhs:(i+1)*c.nrhs])
	}
}

// SolveLS back-substitutes the resident triangle against the retained Qᵀb,
// writing the n×nrhs least-squares solution to x (row stride ldx).
func (c *Core[T]) SolveLS(x []T, ldx int) error {
	if c.err != nil {
		return c.err
	}
	if c.nrhs == 0 {
		return fmt.Errorf("tiledqr: SolveLS: stream tracks no right-hand side (ingest batches with AppendRHS)")
	}
	if c.rows < int64(c.n) {
		return fmt.Errorf("tiledqr: SolveLS: needs at least n = %d represented rows (have %d)", c.n, c.rows)
	}
	if c.rwork == nil {
		c.rwork = make([]T, c.n*c.n)
		c.xcol = make([]T, c.n)
	}
	c.CopyR(c.rwork, c.n)
	return engine.SolveUpper(c.n, c.nrhs, c.rwork, c.n, c.qtb, c.nrhs, x, ldx, c.xcol)
}
