package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/sim"
	"tiledqr/internal/tile"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

// workers is the width of every runtime the benchmark starts: the issue
// sizes the workloads for a 2-core host, and a wider pool on a wider host
// would make the same workload a different one.
const workers = 2

// pubFact is what the timed pass needs from a public factorization; both
// *tiledqr.Factorization and *tiledqr.ZFactorization have it.
type pubFact[T vec.Scalar] interface {
	SolveLS(b *tiledqr.Mat[T]) (*tiledqr.Mat[T], error)
	R() *tiledqr.Mat[T]
	ThinQ() *tiledqr.Mat[T]
}

// pub gives the per-precision public entry points one generic signature.
type pub[T vec.Scalar] struct {
	factor func(a *tiledqr.Mat[T], opt tiledqr.Options) (pubFact[T], error)
	into   func(f pubFact[T], a *tiledqr.Mat[T], opt tiledqr.Options) error
	empty  func() pubFact[T]
}

var pubD = pub[float64]{
	factor: func(a *tiledqr.Dense, opt tiledqr.Options) (pubFact[float64], error) {
		f, err := tiledqr.Factor(a, opt)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	into: func(f pubFact[float64], a *tiledqr.Dense, opt tiledqr.Options) error {
		return tiledqr.FactorInto(f.(*tiledqr.Factorization), a, opt)
	},
	empty: func() pubFact[float64] { return &tiledqr.Factorization{} },
}

var pubZ = pub[complex128]{
	factor: func(a *tiledqr.ZDense, opt tiledqr.Options) (pubFact[complex128], error) {
		f, err := tiledqr.FactorComplex(a, opt)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	into: func(f pubFact[complex128], a *tiledqr.ZDense, opt tiledqr.Options) error {
		return tiledqr.ZFactorInto(f.(*tiledqr.ZFactorization), a, opt)
	},
	empty: func() pubFact[complex128] { return &tiledqr.ZFactorization{} },
}

// ledger sums what the traced factorizations of one shape report: kernel
// time by kind from the scheduler's task trace, the job accounting of
// sched.JobStats, and the replayed steps the engine runs before the DAG.
type ledger struct {
	mu               sync.Mutex
	ops              int
	busy             [6]time.Duration // by core.Kind
	tasks            int64
	jobBusy, jobWall time.Duration
	opWall           time.Duration // factor (+ solve) spans
	buildUS, planUS  []float64
	copyInUS         []float64
	copyOutUS        []float64
	dagTasks, cpUnit int
}

// factorOut is the last result a caller produced, kept for verification.
type factorOut[T vec.Scalar] struct {
	r, q func() *tile.Dense[T]
	x    *tile.Dense[T]
}

// factorInst is a factor workload: every caller owns one input matrix and
// right-hand side and factors it again and again. With tracing off an
// operation goes through the public API; with tracing on it enters one
// level lower, at internal/engine, because only there can the scheduler's
// task spans be joined to the kernel kind of each task.
type factorInst[T vec.Scalar] struct {
	sh      shape
	api     pub[T]
	reuse   bool // FactorInto a resident factorization, no solve
	warmN   int
	rt      *tiledqr.Runtime
	pool    *sched.Runtime // the traced pass's pool, same width as rt
	a, b    []*tile.Dense[T]
	res     []pubFact[T]               // per caller, reuse only
	eres    []*engine.Factorization[T] // per caller, traced reuse only
	scratch []*tile.Matrix[T]          // per caller, copy-in replay target for reuse
	last    []factorOut[T]             // per caller
	lastF   []*engine.Factorization[T] // per caller, traced: what replay reads R from
	led     *ledger
}

func newFactorInst[T vec.Scalar](sh shape, api pub[T], callers int, reuse bool, warm int, seed int64) *factorInst[T] {
	in := &factorInst[T]{
		sh: sh, api: api, reuse: reuse, warmN: warm,
		rt:   tiledqr.NewRuntime(workers),
		pool: sched.NewRuntime(workers),
		led:  &ledger{},
	}
	for c := 0; c < callers; c++ {
		in.a = append(in.a, tile.RandDense[T](sh.m, sh.n, seed*1000+int64(2*c)))
		in.b = append(in.b, tile.RandDense[T](sh.m, 1, seed*1000+int64(2*c+1)))
		in.res = append(in.res, api.empty())
		in.eres = append(in.eres, new(engine.Factorization[T]))
	}
	in.scratch = make([]*tile.Matrix[T], callers)
	in.last = make([]factorOut[T], callers)
	in.lastF = make([]*engine.Factorization[T], callers)
	return in
}

func (in *factorInst[T]) options() tiledqr.Options {
	// Algorithm, kernel family and sizes are pinned: an autotuner decision
	// that flips between runs would make the series bimodal.
	return tiledqr.Options{Algorithm: tiledqr.Greedy, Kernels: tiledqr.TT,
		TileSize: in.sh.nb, InnerBlock: in.sh.ib, Runtime: in.rt}
}

func (in *factorInst[T]) config(env engine.Env, js *sched.JobStats) engine.Config {
	return engine.Config{Algorithm: core.Greedy, Kernels: core.TT,
		TileSize: in.sh.nb, InnerBlock: in.sh.ib, Env: env, Trace: js != nil, Stats: js}
}

func (in *factorInst[T]) warmOps() int { return in.warmN }

func (in *factorInst[T]) op(c int, sp *span) (sample, error) {
	out := sample{rows: in.sh.m, flops: in.sh.flops()}
	if sp != nil {
		return out, in.tracedOp(c, sp)
	}
	a, b := (*tiledqr.Mat[T])(in.a[c]), (*tiledqr.Mat[T])(in.b[c])
	f := in.res[c]
	var err error
	if in.reuse {
		err = in.api.into(f, a, in.options())
	} else {
		f, err = in.api.factor(a, in.options())
	}
	if err != nil {
		return out, err
	}
	last := factorOut[T]{r: func() *tile.Dense[T] { return (*tile.Dense[T])(f.R()) },
		q: func() *tile.Dense[T] { return (*tile.Dense[T])(f.ThinQ()) }}
	if !in.reuse {
		x, err := f.SolveLS(b)
		if err != nil {
			return out, err
		}
		last.x = (*tile.Dense[T])(x)
	}
	in.last[c] = last
	return out, nil
}

func (in *factorInst[T]) tracedOp(c int, sp *span) error {
	var js sched.JobStats
	cfg := in.config(engine.Env{Runtime: in.pool}, &js)
	fs := sp.child("engine.factor")
	f := in.eres[c]
	var err error
	if in.reuse {
		err = engine.FactorInto(f, in.a[c], cfg)
	} else {
		f, err = engine.Factor(in.a[c], cfg)
	}
	end := fs.finish()
	if err != nil {
		return err
	}
	// The scheduler stamps task spans from the job's submission; the job
	// ends when Factor returns, so it started Elapsed before that.
	tr, d := f.Trace(), f.DAG()
	jobStart := end - tr.Elapsed
	var busy [6]time.Duration
	for _, s := range tr.Spans {
		k := d.Tasks[s.Task].Kind
		fs.childAt(kinds[k], 100+s.Worker, jobStart+s.Start, jobStart+s.End)
		busy[k] += s.End - s.Start
	}
	wall := fs.dur()
	out := factorOut[T]{r: f.R, q: f.ThinQ}
	if !in.reuse {
		ss := sp.child("engine.solve")
		out.x, err = f.SolveLS(context.Background(), in.b[c])
		ss.finish()
		if err != nil {
			return err
		}
		wall += ss.dur()
	}
	in.last[c], in.lastF[c] = out, f

	l := in.led
	l.mu.Lock()
	l.ops++
	for k := range busy {
		l.busy[k] += busy[k]
	}
	l.tasks += js.Tasks
	l.jobBusy += js.Busy
	l.jobWall += js.Wall
	l.opWall += wall
	l.mu.Unlock()
	return nil
}

// replay repeats, one call at a time and outside the operation's timed
// span, the steps engine.Factor runs before and after the DAG, so that each
// gets a span of its own: building the task DAG, planning it for the
// scheduler, copying the matrix into tile layout, and reading R back out.
func (in *factorInst[T]) replay(c int, sp *span) {
	if sp == nil || in.lastF[c] == nil {
		return
	}
	us := func(s *span) float64 { return float64(s.dur()) / float64(time.Microsecond) }
	g := tile.NewGrid(in.sh.m, in.sh.n, in.sh.nb)

	bs := sp.child("core.build")
	list, err := core.Generate(core.Greedy, g.P, g.Q, core.Options{})
	if err != nil {
		panic(err) // Greedy takes no parameter that could be wrong
	}
	d := core.BuildDAG(list, core.TT)
	d.Succs()
	bs.finish()

	ps := sp.child("sched.plan")
	sched.NewPlan(d)
	ps.finish()

	ci := sp.child("tile.copy_in")
	if in.reuse {
		if in.scratch[c] == nil {
			in.scratch[c] = tile.NewMatrix[T](g)
		}
		in.scratch[c].CopyFrom(in.a[c])
	} else {
		tile.NewMatrixOn[T](g, make([]T, g.M*g.N)).CopyFrom(in.a[c])
	}
	ci.finish()

	co := sp.child("tile.copy_out")
	in.lastF[c].R()
	co.finish()

	l := in.led
	l.mu.Lock()
	l.buildUS = append(l.buildUS, us(bs))
	l.planUS = append(l.planUS, us(ps))
	l.copyInUS = append(l.copyInUS, us(ci))
	l.copyOutUS = append(l.copyOutUS, us(co))
	l.dagTasks, l.cpUnit = d.NumTasks(), sim.CriticalPathList(list, core.TT)
	l.mu.Unlock()
}

// verify checks caller 0's last factorization against its input with the
// harness's own loops: ‖A − QR‖_F/‖A‖_F, ‖I − QᴴQ‖_F and, where the
// operation solves, the distance of x from R⁻¹Qᴴb.
func (in *factorInst[T]) verify() (float64, error) {
	out := in.last[0]
	if out.r == nil {
		return 0, fmt.Errorf("no operation completed")
	}
	a, r, q := in.a[0], out.r(), out.q()
	n := min(in.sh.m, in.sh.n)
	if r.Rows != n || r.Cols != in.sh.n || q.Rows != in.sh.m || q.Cols != n {
		return 0, fmt.Errorf("factors have the wrong shape: R %d×%d, Q %d×%d", r.Rows, r.Cols, q.Rows, q.Cols)
	}
	worst := max(qrResidual(a, q, r), orthoResidual(q))
	if !in.reuse {
		dx, err := relDiff(out.x, solveFromQR(q, r, in.b[0]))
		if err != nil {
			return 0, err
		}
		worst = max(worst, dx)
	}
	if math.IsNaN(worst) {
		return 0, fmt.Errorf("factors contain NaN")
	}
	return worst / eps, nil
}

func (in *factorInst[T]) layers(metrics)   {}
func (in *factorInst[T]) peakRSS() float64 { return selfPeakRSS() }

func (in *factorInst[T]) close() {
	in.rt.Close()
	in.pool.Close()
}

// timeReps calls f until the budget is spent, at least three times, and
// returns the median duration in milliseconds and the repetition count.
func timeReps(budget time.Duration, f func()) (ms float64, reps int) {
	var d []float64
	for t0 := time.Now(); len(d) < 3 || time.Since(t0) < budget; {
		t := time.Now()
		f()
		d = append(d, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(d), len(d)
}

var kernelSecsCache = map[shape]map[core.Kind]float64{}

// kernelSecs returns seconds per call of the six kernels at the shape's
// precision and tile sizes, measured once per process by the repo's own
// kernel-timing harness (the one calibration uses).
func kernelSecs(sh shape, window time.Duration) map[core.Kind]float64 {
	key := shape{prec: sh.prec, nb: sh.nb, ib: sh.ib}
	if s, ok := kernelSecsCache[key]; ok {
		return s
	}
	var s map[core.Kind]float64
	if sh.prec == "z" {
		s = tune.MeasureKernelSecs[complex128](sh.nb, sh.ib, window)
	} else {
		s = tune.MeasureKernelSecs[float64](sh.nb, sh.ib, window)
	}
	kernelSecsCache[key] = s
	return s
}

// factorLayers emits the layer metrics of one factorization shape: the
// ledger's attribution, the engine's cold and reuse paths measured through
// its exported functions, and the two predictions the repo can make of the
// same factorization (list-schedule simulation and the paper's roofline).
func (in *factorInst[T]) factorLayers(m metrics, budget time.Duration) {
	l, sh := in.led, in.sh
	var busy time.Duration
	for _, b := range l.busy {
		busy += b
	}
	m.layer("kernel.busy_frac", ratio(float64(busy), float64(workers*l.opWall)), l.ops)
	for k, name := range kinds {
		m.layer("kernel.share."+name, ratio(float64(l.busy[k]), float64(busy)), l.ops)
	}
	m.layer("sched.idle_frac", 1-ratio(float64(l.jobBusy), float64(workers*l.jobWall)), l.ops)
	m.layer("sched.eff_workers", ratio(float64(l.jobBusy), float64(l.jobWall)), l.ops)
	m.layer("sched.tasks_per_op", ratio(float64(l.tasks), float64(l.ops)), 0)
	m.layer("core.dag_build_us", median(l.buildUS), len(l.buildUS))
	m.layer("core.tasks", float64(l.dagTasks), 0)
	m.layer("core.cp_units", float64(l.cpUnit), 0)
	copyIn := median(l.copyInUS)
	elem := 8.0
	if sh.prec == "z" {
		elem = 16
	}
	m.layer("tile.copy_in_us", copyIn, len(l.copyInUS))
	// Computed bytes: every element read once and written once.
	m.layer("tile.copy_in_gbs", 2*elem*float64(sh.m)*float64(sh.n)/(copyIn*1e3), len(l.copyInUS))
	m.layer("tile.copy_out_us", median(l.copyOutUS), len(l.copyOutUS))

	a, b := in.a[0], in.b[0]
	var js sched.JobStats
	pool := in.config(engine.Env{Runtime: in.pool}, nil)
	pool.Stats = &js
	var jobWall time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	var f *engine.Factorization[T]
	cold, coldN := timeReps(budget/4, func() {
		var err error
		if f, err = engine.Factor(a, pool); err != nil {
			panic(err) // the same call just succeeded in the traced loop
		}
		jobWall += js.Wall
	})
	runtime.ReadMemStats(&ms)
	m.layer("engine.cold_ms", cold, coldN)
	m.layer("engine.alloc_kb_per_op", float64(ms.TotalAlloc-alloc0)/1024/float64(coldN), coldN)
	m.layer("engine.mallocs_per_op", float64(ms.Mallocs-mallocs0)/float64(coldN), coldN)
	reuse, reuseN := timeReps(budget/4, func() {
		if err := engine.FactorInto(f, a, pool); err != nil {
			panic(err)
		}
	})
	m.layer("engine.reuse_ms", reuse, reuseN)
	m.layer("engine.cold_overhead_frac", (cold-reuse)/cold, coldN)
	solve, solveN := timeReps(budget/8, func() {
		if _, err := f.SolveLS(context.Background(), b); err != nil {
			panic(err)
		}
	})
	m.layer("engine.solve_ms", solve, solveN)
	// What the replayed steps and the DAG's wall clock do not account for:
	// arena allocation and zeroing, and whatever else the cold path does.
	known := float64(jobWall)/float64(coldN)/float64(time.Millisecond) +
		(median(l.buildUS)+median(l.planUS)+copyIn)/1e3
	m.layer("engine.unattributed_frac", (cold-known)/cold, coldN)
	inline, inlineN := timeReps(budget/4, func() {
		if err := engine.FactorInto(f, a, in.config(engine.Env{Workers: 1}, nil)); err != nil {
			panic(err)
		}
	})
	m.layer("par_speedup", inline/reuse, inlineN)

	// Predicted against measured, the paper's Section 4 method: weigh each
	// task by its measured kernel time and list-schedule the DAG on the
	// pool's width; and the roofline γ_seq·T/max(T/P, cp).
	g := tile.NewGrid(sh.m, sh.n, sh.nb)
	list, _ := core.Generate(core.Greedy, g.P, g.Q, core.Options{})
	d := core.BuildDAG(list, core.TT)
	w := sim.KindWeights(d, kernelSecs(sh, min(budget/40, 30*time.Millisecond)))
	pred := sim.ListSchedule(d, workers, w, sim.PriorityBLevel) * 1e3
	m.layer("sim.predicted_ms", pred, 0)
	m.layer("sim.efficiency", pred/reuse, reuseN)
	var seq float64
	for _, s := range w {
		seq += s
	}
	gamma := model.Predict(sh.flops()/seq, model.TotalUnits(g.P, g.Q), l.cpUnit, workers)
	roof := sh.flops() / gamma * 1e3
	m.layer("model.roofline_ms", roof, 0)
	m.layer("model.efficiency", roof/reuse, reuseN)
}
