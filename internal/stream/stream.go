// Package stream holds the TSQR aggregate — the upper triangular factor of
// a set of rows of [A b], in O(n² + batch) memory however many rows were
// ingested — and the one step that combines aggregates (Demmel et al.):
// incoming rows, an appended batch or another aggregate's triangle, are
// merged into the resident triangle with the paper's kernels along the
// task DAG of core.BuildStreamDAG on internal/sched. Right-hand sides are
// trailing columns of that triangle: its leading n×n block is R, the n
// rows beside it are Qᵀb, and the nrhs×nrhs triangle S below those holds
// the components rotated out of them, so the residual norm is ‖S‖_F. A
// right-hand side's updates are thus ordinary tasks of the merge DAG.
// A row batch is staged in tiles two tile rows (2·nb) tall and
// merges along FlatTree with TS kernels, each batch tile TSQRT'd straight
// into the resident row: the fewest and cheapest tasks, each on a block
// where the TS kernels run faster per flop than on a square one
// (batchTileRows). A triangle merges along BinaryTree in the configured
// kernel family. An accrete-only stream is the flat reduction tree; each
// worker of internal/dist is a Core in a binomial one, exporting its
// aggregate through CopyR, CopyQTB, ResidualNorm and Rows and folding in
// its children's with Merge. Tasks dispatch through the shared engine.Source
// loop, generically over all four scalar domains.
//
// Beyond pure accretion the Core supports revocation: with retention
// enabled (Config.Window) appended batches are kept in a compact row
// history and the represented system is a reduction tree of triangle
// merges over it (window.go) — TSQR over a sliding set. Forgetting the
// oldest rows drops leaves, which costs no arithmetic and cannot break
// down; the first read afterwards re-merges the surviving triangles with
// the same DAGs and kernels appends use. An exponential forgetting factor
// decays the weight of old rows geometrically per append.
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

// batchTileRows is the height, in tile rows, of the tiles a row batch is
// staged in; the last is ragged, and a batch shorter than that is one tile
// of its own height. TSQRT and TSMQR take a B block of any height, and at
// 2·nb rows they run faster per flop than at nb — f64, ib = nb/4, median
// GFLOP/s of BenchmarkKernels' TS rows over 15 rounds on a 2-vCPU Xeon:
// TSQRT 7.0 → 9.2 at nb = 64 and 10.0 → 10.8 at nb = 128, TSMQR 12.6 →
// 14.8 and 17.3 → 18.9 — so a batch merges in half the TS tasks, each on
// the faster shape. Four tile rows gain as much per flop but leave a
// 256-row batch at nb = 64 a single tile row, whose merge loses the
// wavefront in which two tile rows overlap on two workers.
const batchTileRows = 2

// RetainAll configures Config.Window to retain the full row history without
// a sliding window: rows are kept (and memory grows with them) until the
// caller removes them with Downdate.
const RetainAll = -1

// Config carries the streaming parameters beyond the column count.
type Config struct {
	NB, IB  int
	Kernels core.Kernels // kernel family of triangle merges (row batches always merge with TS)
	Env     engine.Env
	Check   bool // validate batches, fail fast on breakdown

	// Window selects the retention policy: 0 retains nothing (appends are
	// irrevocable, the historical behavior), a positive value keeps a
	// sliding window of the most recent Window rows (each append evicts the
	// rows that fall out of it), and RetainAll keeps every row for manual
	// Downdate calls.
	Window int
	// Forget is the exponential forgetting factor λ ∈ (0, 1]: before each
	// append the represented system is scaled by √λ, so a row appended k
	// batches ago carries weight λ^(k/2). Zero (or 1) disables forgetting.
	Forget float64
}

// agg is one aggregate of the reduction: the upper triangular factor of a
// set of rows of [A b], n + nrhs columns wide — R, their Qᵀb beside it and
// the residual triangle S below that. An accrete-only stream is a single
// aggregate; a windowed one keeps several (window.go). Every aggregate of a
// Core has the same tile layout, so one is cloned by one copy.
type agg[T vec.Scalar] struct {
	res  []tile.Dense[T] // row-major q×q views into data; only tiles with i ≤ k exist
	data []T
}

// set overwrites a with a copy of src, or with the aggregate of no rows
// when src is nil.
func (a *agg[T]) set(src *agg[T]) {
	if src == nil {
		clear(a.data)
		return
	}
	copy(a.data, src.data)
}

// Core is the domain-generic streaming state: the aggregate appends merge
// into, the optional row history with the reduction over it, and cached
// merge plans keyed by batch shape. Kernel workspaces live with the
// executing workers (engine.WorkerWS), and per-merge staging (the tiled
// batch copy, right-hand sides in its trailing columns, and its T factors)
// is borrowed from a package-level pool shared by every stream, so the
// idle footprint of one Core is O(n²) without retention and about twice
// the retained rows with it.
type Core[T vec.Scalar] struct {
	n, nb, ib int
	env       engine.Env
	kernels   core.Kernels
	check     bool // Options.CheckHealth: validate batches, fail fast on breakdown

	window int     // retention policy (see Config.Window)
	forget float64 // per-append forgetting factor λ (0 = off)

	// err is the stream's sticky failure: a merge that errors, panics, or is
	// cancelled mid-DAG leaves its target aggregate partially transformed, so
	// every later operation refuses with the original cause. There is no
	// recovery path — a poisoned stream must be replaced.
	err error

	grid   tile.Grid // q×q grid over the (n+nrhs)×(n+nrhs) triangle of [A b]
	triLen int       // scalars in the upper tiles of grid: len(agg.data)

	// back is the aggregate appends merge into: every row ingested when
	// nothing is retained, the rows appended since the last flip otherwise.
	back *agg[T]
	nrhs int   // right-hand sides, fixed by the first append
	rows int64 // rows currently represented (ingested − evicted)

	// Retention state (window.go). While window == 0 it stays empty and view,
	// once read, is back.
	hist        []block[T]      // the blocks back stands for, oldest first
	pending     int             // trailing blocks of hist not merged into back yet
	pendingRows int             // and the rows they hold
	front       []block[T]      // the older blocks, newest first: eviction pops the end
	stack       []checkpoint[T] // suffix aggregates over front, newest chunk first
	view        *agg[T]         // front and back merged, what reads serve; nil when stale
	freeAggs    []*agg[T]
	freeBlocks  []block[T]
	gather      []T // rows, then RHS rows, of a multi-block chunk staged for one merge

	plans map[int]*sched.Plan // merge plans keyed by staged tile rows pb (0: a triangular block)

	// dst and cur are the target aggregate and the pooled staging of the
	// merge in flight (the Source methods need them).
	dst *agg[T]
	cur *staging[T]

	rwork []T // the top n rows of the triangle, [R Qᵀb], for back-substitution
	xcol  []T // back-substitution column scratch
}

// NewCore creates the streaming state for an n-column system. cfg.Env
// selects where merge DAGs execute (a runtime, or inline), as it does for
// a factorization; a runtime runs a chain-shaped merge, such as any merge
// into a one-tile triangle, on the caller.
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
	c := &Core[T]{
		n: n, nb: cfg.NB, ib: cfg.IB, env: cfg.Env, kernels: cfg.Kernels, check: cfg.Check,
		window: cfg.Window, forget: cfg.Forget,
		plans: make(map[int]*sched.Plan),
	}
	c.track(0)
	return c, nil
}

// track lays the resident grid over the n + nrhs columns of [A b] and
// starts from the aggregate of no rows: at construction, and when the
// first append fixes nrhs, on a Core that represents no rows. Aggregates
// and plans of the old width are dropped.
func (c *Core[T]) track(nrhs int) {
	c.nrhs = nrhs
	c.grid = tile.NewGrid(c.n+nrhs, c.n+nrhs, c.nb)
	c.triLen = 0
	for i := 0; i < c.grid.Q; i++ {
		for k := i; k < c.grid.Q; k++ {
			c.triLen += c.grid.TileRows(i) * c.grid.TileCols(k)
		}
	}
	clear(c.plans)
	c.freeAggs = nil
	c.back = c.getAgg()
	c.back.set(nil)
}

// carveTri points the upper tiles (i ≤ k) of the resident grid at
// consecutive slices of buf — the one layout aggregates and a staged
// triangular block share.
func (c *Core[T]) carveTri(tiles []tile.Dense[T], buf []T) {
	g, off := c.grid, 0
	for i := 0; i < g.Q; i++ {
		for k := i; k < g.Q; k++ {
			r, cc := g.TileRows(i), g.TileCols(k)
			tiles[i*g.Q+k] = tile.Dense[T]{Rows: r, Cols: cc, Stride: cc, Data: buf[off : off+r*cc]}
			off += r * cc
		}
	}
}

// getAgg returns an aggregate with unspecified contents, recycled from the
// free list when it has one.
func (c *Core[T]) getAgg() *agg[T] {
	var a *agg[T]
	if k := len(c.freeAggs); k > 0 {
		a, c.freeAggs = c.freeAggs[k-1], c.freeAggs[:k-1]
	} else {
		a = &agg[T]{res: make([]tile.Dense[T], c.grid.Q*c.grid.Q), data: make([]T, c.triLen)}
		c.carveTri(a.res, a.data)
	}
	return a
}

// N returns the column count of the streamed system.
func (c *Core[T]) N() int { return c.n }

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
// represents: every row ingested minus every row evicted.
func (c *Core[T]) Rows() int64 { return c.rows }

// NRHS returns the number of tracked right-hand sides (0 when none).
func (c *Core[T]) NRHS() int { return c.nrhs }

// ResidualNorm returns ‖b − A·X‖_F of the least-squares system currently
// represented, over all tracked right-hand-side columns: ‖S‖_F, the norm
// of the residual triangle, computed without squaring an entry. Zero when
// no right-hand side is tracked.
func (c *Core[T]) ResidualNorm() (float64, error) {
	a, err := c.resident()
	if err != nil {
		return 0, err
	}
	var s float64
	c.segments(a, c.n, c.grid.N, c.n, c.grid.N, func(_, _ int, seg []T) { s = math.Hypot(s, vec.Nrm2(seg)) })
	return s, nil
}

// Footprint returns the number of scalars retained across appends: every
// aggregate and history buffer — live, or waiting on a free list for reuse
// — plus solve and staging scratch. Without retention that is O(n²) and
// nothing grows with rows ingested (per-merge staging is pooled across
// streams, not owned here); with it, the retained rows plus at most one
// aggregate per n of them.
func (c *Core[T]) Footprint() int {
	total := len(c.rwork) + len(c.xcol) + cap(c.gather)
	aggs := 1 + len(c.freeAggs)
	if c.view != nil && c.view != c.back {
		aggs++
	}
	for _, cp := range c.stack {
		if cp.agg != nil {
			aggs++
		}
	}
	total += aggs * c.triLen
	for _, blocks := range [][]block[T]{c.hist, c.front, c.freeBlocks} {
		for _, b := range blocks {
			total += cap(b.data) + cap(b.rhs)
		}
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

// tileBatch lays the staging out for an r-row batch of [A b] and returns
// its grid: tile views over the pooled arena, batchTileRows·nb rows tall
// and nb columns wide. The merge DAG's first writers fill the columns of A
// from the batch through that grid (engine.Fill); the RHS rows (stride
// ldr), scaled by scale, are written into the trailing nrhs columns here.
func (c *Core[T]) tileBatch(st *staging[T], r int, rhs []T, ldr int, scale float64) tile.Grid {
	q, nb := c.grid.Q, c.nb
	g := tile.NewTallGrid(r, c.grid.N, nb, batchTileRows*nb, 0)
	st.pb, st.h = g.P, g.TileRows(0)
	st.tiles = grow(st.tiles, st.pb*q)
	st.arena = grow(st.arena, r*c.grid.N)
	off := 0
	for ti := 0; ti < st.pb; ti++ {
		tr, r0 := g.TileRows(ti), g.RowStart(ti)
		for tk := 0; tk < q; tk++ {
			tc := c.grid.TileCols(tk)
			t := tile.Dense[T]{Rows: tr, Cols: tc, Stride: tc, Data: st.arena[off : off+tr*tc]}
			st.tiles[ti*q+tk] = t
			off += tr * tc
			if lo := max(c.n, tk*nb); lo < tk*nb+tc { // the tile holds RHS columns from lo on
				for i := 0; i < tr; i++ {
					src := rhs[(r0+i)*ldr+lo-c.n:]
					engine.ScaleCopy(t.Data[i*tc+lo-tk*nb:(i+1)*tc], src[:tk*nb+tc-lo], scale)
				}
			}
		}
	}
	return g
}

// workLen is the kernel scratch of a merge whose staged tiles are at most h
// rows tall over tile columns w = min(nb, n + nrhs) wide: TSQRT of an h-row
// B and, in packed form, the updates of h-row reflectors — TSMQR onto the
// other tile columns, and TSQRT's own trailing updates past its first ib
// columns (kernel.TileWorkLen, what a factorization's workers get for its
// tiles of that height). A triangle no wider than ib has no updates, and
// needs only TSQRT's own scratch.
func (c *Core[T]) workLen(h int) int {
	w := min(c.nb, c.grid.N)
	if c.grid.Q > 1 || w > c.ib {
		return kernel.TileWorkLen(h, w, c.ib)
	}
	return kernel.FactorWorkLen(h, w, c.ib)
}

// plan returns the cached merge execution plan for a pb-tile-row batch, or
// for an upper triangular block when pb is 0. The cache is keyed by batch
// height only — a handful of entries for any realistic workload, never
// dependent on the number of batches ingested.
func (c *Core[T]) plan(pb int) *sched.Plan {
	if p, ok := c.plans[pb]; ok {
		return p
	}
	var d *core.DAG
	if pb == 0 {
		d = core.BuildStreamDAG(c.grid.Q, c.grid.Q, c.kernels, true)
	} else {
		d = core.BuildStreamDAG(c.grid.Q, pb, core.TS, false)
	}
	p := sched.NewPlan(d)
	c.plans[pb] = p
	return p
}

// TileAt implements engine.Source with the stacked addressing: tile rows
// 1..q are the target aggregate's triangle, rows q+1..q+pb the staged block.
func (c *Core[T]) TileAt(i, k int) *tile.Dense[T] {
	if i <= c.grid.Q {
		return &c.dst.res[(i-1)*c.grid.Q+(k-1)]
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
// of the pooled arena. Only staged rows ever carry factors (the target
// triangle is never re-factored), so this is O(batch · n · ib/nb). No
// zeroing is needed: every T position a kernel reads (the upper triangle of
// each panel block) is written by the factor kernel of the same merge
// before any applier reads it.
func (c *Core[T]) allocT(d *core.DAG, st *staging[T]) {
	p := c.grid.Q + st.pb
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
// triangle, with the matching r×nrhs RHS rows (stride ldr) as its trailing
// columns when the stream tracks right-hand sides. The caller's slices are
// never modified. rhs must be nil exactly when the stream tracks no RHS;
// tracking is decided by the first append. Append is
// not safe for concurrent use. A non-nil ctx cancels the merge: validation
// failures leave the stream intact, but a cancellation (or task failure)
// once the merge DAG is running poisons the stream permanently.
//
// Under a forgetting factor the represented system is decayed by √λ first;
// a retaining stream then takes the batch through appendRetained instead.
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
			c.Reset()
			c.track(nrhs)
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
		return c.appendRetained(ctx, r, data, ld, rhs, ldr)
	}
	if err := c.merge(ctx, c.back, r, data, ld, rhs, ldr, 1); err != nil {
		// The merge DAG mutates its target triangle in place, so any
		// failure past this point leaves it partially transformed: poison.
		return c.poisoned(err)
	}
	c.rows += int64(r)
	return nil
}

// merge merges r rows (stride ld, with their RHS rows, all scaled by
// scale) into dst; the merge DAG tiles the rows as it goes. The caller
// poisons the stream on error.
func (c *Core[T]) merge(ctx context.Context, dst *agg[T], r int, data []T, ld int, rhs []T, ldr int, scale float64) error {
	st := getStaging[T]()
	defer putStaging(st)
	g := c.tileBatch(st, r, rhs, ldr, scale)
	fill := engine.Fill[T]{Src: tile.Dense[T]{Rows: r, Cols: c.n, Stride: ld, Data: data},
		Skip: c.grid.Q, Grid: g, Scale: scale}
	return c.exec(ctx, dst, st, c.plan(st.pb), fill)
}

// mergeAgg merges the aggregate src into dst, triangle on triangle: src's
// tiles are staged as an upper triangular block. src is left untouched.
func (c *Core[T]) mergeAgg(ctx context.Context, dst, src *agg[T]) error {
	st := getStaging[T]()
	defer putStaging(st)
	st.pb, st.h = c.grid.Q, c.nb
	st.tiles = grow(st.tiles, c.grid.Q*c.grid.Q)
	st.arena = grow(st.arena, c.triLen)
	c.carveTri(st.tiles, st.arena)
	copy(st.arena, src.data)
	return c.exec(ctx, dst, st, c.plan(0), engine.Fill[T]{})
}

// Merge folds in the aggregate of rows disjoint from the stream's own, as
// CopyR, CopyQTB, ResidualNorm and Rows export it: the upper triangle of an
// n×n factor r (row stride ldr; the strictly lower part is not read), the
// top n rows of its Qᵀb (row stride ldq, one column per RHS the stream
// tracks; nil when it tracks none), its residual norm and its row count.
// The stream then holds both row sets, as if it had appended the others:
// one triangle-on-triangle merge, which forgetting does not decay. The
// residual goes in as S(0,0), the rest of S as zero: the merge reads S
// only through ‖S‖_F, so that is exact. A retaining stream refuses; a
// failure once the merge runs poisons it.
func (c *Core[T]) Merge(ctx context.Context, r []T, ldr int, qtb []T, ldq int, resid float64, rows int64) error {
	if c.err != nil {
		return c.err
	}
	if c.window != 0 {
		return fmt.Errorf("tiledqr: stream: cannot merge an aggregate into a stream that retains its rows (window %d): its row history would not hold the merged rows", c.window)
	}
	if (qtb == nil) != (c.nrhs == 0) {
		return fmt.Errorf("tiledqr: stream: a merged aggregate must carry Qᵀb exactly when the stream tracks right-hand sides (it tracks %d)", c.nrhs)
	}
	a := c.getAgg()
	defer c.putAgg(a)
	clear(a.data)
	n, N := c.n, c.grid.N
	c.copyBlock(a, r, ldr, 0, n, false)
	c.copyBlock(a, qtb, ldq, n, N, false)
	if c.nrhs > 0 {
		c.segments(a, n, n+1, n, n+1, func(_, _ int, s00 []T) { s00[0] = vec.FromParts[T](resid, 0) })
	}
	if err := c.mergeAgg(ctx, c.back, a); err != nil {
		return c.poisoned(err)
	}
	c.rows += rows
	return nil
}

// exec runs merge plan p over the stack [dst; staged block], its first
// writers filling the staged tiles through fill.
func (c *Core[T]) exec(ctx context.Context, dst *agg[T], st *staging[T], p *sched.Plan, fill engine.Fill[T]) error {
	c.allocT(p.DAG(), st)
	c.dst, c.cur = dst, st
	defer func() { c.dst, c.cur = nil, nil }()
	_, err := engine.ExecTasks[T](c, p, c.env,
		engine.RunOpts{Ctx: ctx, Check: c.check}, fill, c.ib, c.workLen(st.h))
	return err
}

// scaleForget decays the represented system by the forgetting factor λ:
// every live aggregate's triangle scales by √λ (so the implicit rows do
// too), and every retained block's weight by √λ.
func (c *Core[T]) scaleForget(lambda float64) {
	s := math.Sqrt(lambda)
	f := vec.FromParts[T](s, 0)
	scale := func(a *agg[T]) {
		for j := range a.data {
			a.data[j] *= f
		}
	}
	scale(c.back)
	if c.window == 0 {
		return
	}
	c.invalidate()
	for _, cp := range c.stack {
		if cp.agg != nil {
			scale(cp.agg)
		}
	}
	for _, blocks := range [][]block[T]{c.hist, c.front} {
		for i := range blocks {
			blocks[i].scale *= s
		}
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

// Reset empties the stream to zero represented rows and keeps the rest —
// merge plans, buffers, the tracked right-hand-side count — so re-solving a
// system of the same shape allocates nothing. A poisoned stream stays
// poisoned.
func (c *Core[T]) Reset() {
	c.invalidate()
	for _, cp := range c.stack {
		c.putAgg(cp.agg)
	}
	c.freeBlocks = append(append(c.freeBlocks, c.hist...), c.front...)
	c.hist, c.front, c.stack = c.hist[:0], c.front[:0], c.stack[:0]
	c.pending, c.pendingRows = 0, 0
	c.back.set(nil)
	c.rows = 0
}

// CopyR writes the resident upper triangular factor into dst (n×n, row
// stride ld ≥ n). Only the upper triangle is written; callers that need
// explicit zeros below the diagonal must start from a zeroed dst.
func (c *Core[T]) CopyR(dst []T, ld int) error {
	a, err := c.resident()
	if err != nil {
		return err
	}
	c.copyBlock(a, dst, ld, 0, c.n, true)
	return nil
}

// segments calls fn on the stored stretch of each row i in [r0, r1) of a's
// triangle within columns [c0, c1) — from column max(i, c0) on, as nothing
// left of the diagonal is stored — one tile at a time: seg holds row i
// from column j on.
func (c *Core[T]) segments(a *agg[T], r0, r1, c0, c1 int, fn func(i, j int, seg []T)) {
	nb, q := c.nb, c.grid.Q
	for i := r0; i < r1; i++ {
		ti, li := i/nb, i%nb
		for j := max(i, c0); j < c1; {
			tk := j / nb
			t := &a.res[ti*q+tk]
			end := min(c1, tk*nb+t.Cols)
			fn(i, j, t.Data[li*t.Stride+j-tk*nb:li*t.Stride+end-tk*nb])
			j = end
		}
	}
}

// copyBlock copies the top n rows of a's triangle in columns [c0, c1) out
// to d (row stride ld, column c0 first) when out is set, and in from d
// otherwise. Neither side's part left of the diagonal is read or written.
func (c *Core[T]) copyBlock(a *agg[T], d []T, ld, c0, c1 int, out bool) {
	c.segments(a, 0, c.n, c0, c1, func(i, j int, seg []T) {
		dr := d[i*ld+j-c0 : i*ld+j-c0+len(seg)]
		if out {
			copy(dr, seg)
		} else {
			copy(seg, dr)
		}
	})
}

// CopyQTB writes the retained top n rows of Qᵀb into dst (n×nrhs, row
// stride ld ≥ nrhs).
func (c *Core[T]) CopyQTB(dst []T, ld int) error {
	a, err := c.resident()
	if err != nil {
		return err
	}
	c.copyBlock(a, dst, ld, c.n, c.grid.N, true)
	return nil
}

// SolveLS back-substitutes R against the retained Qᵀb beside it, writing
// the n×nrhs least-squares solution to x (row stride ldx).
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
	a, err := c.resident()
	if err != nil {
		return err
	}
	n, N := c.n, c.grid.N
	if c.rwork == nil {
		c.rwork = make([]T, n*N)
		c.xcol = make([]T, n)
	}
	c.copyBlock(a, c.rwork, N, 0, N, true)
	return engine.SolveUpper(n, c.nrhs, c.rwork, N, c.rwork[n:], N, x, ldx, c.xcol)
}
