package main

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/kernel"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

// The fixed probes call one layer's exported functions at one fixed size,
// whatever the workload: they say how fast the layer is on this host today,
// and the workload's own ledger says how much of it the workload uses.
// They are measured once per process.
var (
	fixedOnce sync.Once
	fixedVals metrics
)

// probeSizes are the sizes the fixed probes run at.
type probeSizes struct {
	nb, ib  int // kernel and GEMM tile
	fleet   shape
	tuned   shape // the shape the tuner's prediction is checked on
	stream  streamShape
	serve   serveShape
	distN   int
	budget  time.Duration // per probe group
	calFile string
}

func fixedProbes(m metrics, sz probeSizes) {
	fixedOnce.Do(func() {
		fixedVals = metrics{}
		vecProbe(fixedVals, sz)
		kernelProbe(fixedVals, sz)
		schedProbe(fixedVals, sz)
		tuneProbe(fixedVals, sz)
		streamProbe(fixedVals, sz.stream, sz.budget)
		serveProbe(fixedVals, sz.serve, sz.budget)
		distProbe(fixedVals, sz.distN, sz.budget/4)
	})
	for k, v := range fixedVals {
		m[k] = v
	}
}

func gemmRate[T vec.Scalar](nb int, flopScale float64, budget time.Duration) (float64, int) {
	a, b, c := tile.RandDense[T](nb, nb, 1), tile.RandDense[T](nb, nb, 2), tile.NewDense[T](nb, nb)
	work := make([]T, kernel.WorkLen(nb, nb))
	const inner = 8
	ms, reps := timeReps(budget, func() {
		for i := 0; i < inner; i++ {
			kernel.GEMM(nb, nb, nb, a.Data, nb, b.Data, nb, c.Data, nb, work)
		}
	})
	n := float64(nb)
	return flopScale * 2 * n * n * n * inner / (ms * 1e6), reps
}

// vecProbe times the packed micro-GEMM (reached through kernel.GEMM, which
// falls back to vec.Axpy2 rows in the complex domains and on the generic
// family) and the axpy primitive on one tile row.
func vecProbe(m metrics, sz probeSizes) {
	g, n := gemmRate[float64](sz.nb, 1, sz.budget/8)
	m.layer("vec.gemm_f64_gflops", g, n)
	g, n = gemmRate[complex128](sz.nb, 4, sz.budget/8)
	m.layer("vec.gemm_c128_gflops", g, n)
	x, y := tile.RandDense[float64](1, sz.nb, 3).Data, make([]float64, sz.nb)
	const inner = 4096
	ms, reps := timeReps(sz.budget/8, func() {
		for i := 0; i < inner; i++ {
			vec.Axpy(1.0000001, x, y)
		}
	})
	m.layer("vec.axpy_f64_gflops", 2*float64(sz.nb)*inner/(ms*1e6), reps)
}

// kernelProbe times the six tile kernels in both precisions with the repo's
// own kernel-timing harness, which calls the exported kernel functions on
// random tiles.
func kernelProbe(m metrics, sz probeSizes) {
	cube := float64(sz.nb) * float64(sz.nb) * float64(sz.nb)
	for _, p := range []struct {
		prec, tag string
		scale     float64
	}{{"d", "f64", 1}, {"z", "c128", 4}} {
		secs := kernelSecs(shape{prec: p.prec, nb: sz.nb, ib: sz.ib}, sz.budget/24)
		for k, name := range kinds {
			kind := core.Kind(k)
			m.layer("kernel."+name+"_"+p.tag+"_gflops", p.scale*float64(kind.Weight())*cube/3/secs[kind]/1e9, 0)
		}
	}
}

// schedProbe runs the fleet shape's DAG through the pool with a task body
// that does nothing: what is left is admission, dispatch, dependency
// counting, stealing and the park/wake of the workers.
func schedProbe(m metrics, sz probeSizes) {
	g := tile.NewGrid(sz.fleet.m, sz.fleet.n, sz.fleet.nb)
	list, err := core.Generate(core.Greedy, g.P, g.Q, core.Options{})
	if err != nil {
		panic(err)
	}
	d := core.BuildDAG(list, core.TT)
	plan := sched.NewPlan(d)
	pool := sched.NewRuntime(workers)
	defer pool.Close()
	const inner = 32
	ms, reps := timeReps(sz.budget/4, func() {
		for i := 0; i < inner; i++ {
			if _, err := pool.Exec(plan, sched.Options{}, func(int32, *sched.Local) error { return nil }); err != nil {
				panic(err)
			}
		}
	})
	m.layer("sched.dispatch_ns_per_task", ms*1e6/float64(inner*d.NumTasks()), reps)
}

// tuneProbe calibrates the tuner from nothing under a calibration file of
// its own, times a cached resolution, and checks the tuner's predicted time
// for its chosen configuration against a measured factorization. None of
// the timed workloads consults the tuner; this records what it would cost
// and how well it predicts.
func tuneProbe(m metrics, sz probeSizes) {
	prev := os.Getenv(tune.EnvCalibration)
	defer func() {
		os.Setenv(tune.EnvCalibration, prev)
		tune.Reset()
	}()
	_ = os.MkdirAll(filepath.Dir(sz.calFile), 0o755)
	_ = os.Remove(sz.calFile)
	os.Setenv(tune.EnvCalibration, sz.calFile)
	tune.Reset()
	t0 := time.Now()
	tune.ForPrecision[float64]()
	m.layer("tune.calibrate_s", time.Since(t0).Seconds(), 1)

	req := tune.Request{M: sz.tuned.m, N: sz.tuned.n, Workers: workers, PinNB: sz.tuned.nb, PinIB: sz.tuned.ib}
	choice, err := tune.Resolve[float64](req)
	if err != nil {
		panic(err)
	}
	const inner = 1024
	ms, reps := timeReps(sz.budget/16, func() {
		for i := 0; i < inner; i++ {
			if _, err := tune.Resolve[float64](req); err != nil {
				panic(err)
			}
		}
	})
	m.layer("tune.resolve_us", ms*1e3/inner, reps)

	pool := sched.NewRuntime(workers)
	defer pool.Close()
	a := tile.RandDense[float64](sz.tuned.m, sz.tuned.n, 4)
	cfg := engine.Config{Algorithm: choice.Algorithm, Kernels: choice.Kernels,
		TileSize: choice.NB, InnerBlock: choice.IB, Env: engine.Env{Runtime: pool}}
	f, err := engine.Factor(a, cfg)
	if err != nil {
		panic(err)
	}
	measured, n := timeReps(sz.budget/4, func() {
		if err := engine.FactorInto(f, a, cfg); err != nil {
			panic(err)
		}
	})
	m.layer("tune.pred_err_frac", math.Abs(choice.PredictedSec*1e3-measured)/measured, n)
}
