// Benchmarks regenerating every table and figure of the paper. Each
// Benchmark maps to one experiment (see DESIGN.md §4); GFLOP/s figures are
// emitted as custom metrics so `go test -bench . -benchmem` doubles as the
// experiment harness. Absolute numbers are host-dependent; the paper's
// platform-independent numbers (Tables 2–5) are asserted exactly in the
// test suites instead.
package tiledqr

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/sim"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// --- Table 2: coarse-grain schedules ---------------------------------------

func BenchmarkTable2CoarseSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.CoarseSchedule(core.FlatTreeList(15, 6))
		core.CoarseSchedule(core.GreedyList(15, 6))
		for k := 1; k <= 6; k++ {
			for r := k + 1; r <= 15; r++ {
				core.FibonacciCoarseStep(15, r, k)
			}
		}
	}
}

// --- Table 3: tiled ASAP simulation ------------------------------------------

func BenchmarkTable3TiledSimulation(b *testing.B) {
	lists := []core.List{
		core.FlatTreeList(15, 6), core.FibonacciList(15, 6), core.GreedyList(15, 6),
		core.BinaryTreeList(15, 6), core.PlasmaTreeList(15, 6, 5),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lists {
			sim.ASAP(core.BuildDAG(l, core.TT)).ZeroTimes()
		}
	}
}

// --- Table 4: Greedy vs Asap ---------------------------------------------------

func BenchmarkTable4aAsapGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.AsapList(15, 3)
		core.GrasapList(15, 3, 1)
	}
}

func BenchmarkTable4bLargestCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.CriticalPathList(core.GreedyList(128, 128), core.TT)
		core.AsapList(128, 128)
	}
}

// --- Table 5: the p=40 critical-path sweep -------------------------------------

func BenchmarkTable5GreedyFibonacciSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for q := 1; q <= 40; q++ {
			sim.CriticalPathList(core.GreedyList(40, q), core.TT)
			sim.CriticalPathList(core.FibonacciList(40, q), core.TT)
		}
	}
}

func BenchmarkTable5PlasmaBSSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.BestPlasmaBS(40, 6, core.TT)
	}
}

// --- Figures 1–3 and 6–8: performance model ------------------------------------

func BenchmarkFigure1RooflinePrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, q := range []int{1, 2, 5, 10, 20, 40} {
			cp := sim.CriticalPathList(core.GreedyList(40, q), core.TT)
			model.Predict(3.8, model.TotalUnits(40, q), cp, 48)
		}
	}
}

func BenchmarkFigure6ListScheduling48Workers(b *testing.B) {
	d := core.BuildDAG(core.GreedyList(40, 10), core.TT)
	w := sim.UnitWeights(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ListSchedule(d, 48, w, sim.PriorityBLevel)
	}
}

// --- Figures 4–5: sequential kernel speeds ---------------------------------------

// benchFigureKernels reports GFLOP/s for the six tile kernels plus GEMM at
// the benchmark shape, for one scalar domain of the generic kernels
// (4 real flops per complex flop, as in the paper). The factor kernels
// overwrite their inputs, so each timed call first restores them by copy
// into tiles allocated once, outside the stopwatch each kernel call runs
// on, so the restores stay out of the GFLOP/s figure (ns/op still includes
// them). The apply kernels and GEMM run in place on the same C tiles
// throughout.
func benchFigureKernels[T vec.Scalar](b *testing.B, prefix string) {
	const nb, ib = 128, 32
	flopScale := 1.0
	if vec.IsComplex[T]() {
		flopScale = 4
	}
	tf := make([]T, ib*nb)
	t2 := make([]T, ib*nb)
	work := make([]T, kernel.WorkLen(nb, ib))
	full := tile.RandDense[T](nb, nb, 2).Data
	tri := tile.RandDense[T](nb, nb, 1).Data
	kernel.GEQRT(nb, nb, ib, tri, nb, tf, nb, work)
	tri2 := tile.RandDense[T](nb, nb, 5).Data
	kernel.GEQRT(nb, nb, ib, tri2, nb, t2, nb, work)
	vtt, tTT := slices.Clone(tri2), make([]T, ib*nb)
	kernel.TTQRT(nb, nb, ib, slices.Clone(tri), nb, vtt, nb, tTT, nb, work)
	vts, tTS := slices.Clone(full), make([]T, ib*nb)
	kernel.TSQRT(nb, nb, ib, slices.Clone(tri), nb, vts, nb, tTS, nb, work)
	c1 := tile.RandDense[T](nb, nb, 3).Data
	c2 := tile.RandDense[T](nb, nb, 4).Data
	x, y := make([]T, nb*nb), make([]T, nb*nb)
	inPlace := func() {} // nothing to restore
	cases := []struct {
		name    string
		weight  int
		restore func()
		f       func()
	}{
		{"GEQRT", 4, func() { copy(x, full) }, func() { kernel.GEQRT(nb, nb, ib, x, nb, t2, nb, work) }},
		{"UNMQR", 6, inPlace, func() { kernel.UNMQR(true, nb, nb, ib, tri, nb, tf, nb, c1, nb, nb, work) }},
		{"TSQRT", 6, func() { copy(x, tri); copy(y, full) }, func() { kernel.TSQRT(nb, nb, ib, x, nb, y, nb, t2, nb, work) }},
		{"TSMQR", 12, inPlace, func() { kernel.TSMQR(true, nb, nb, ib, vts, nb, tTS, nb, c1, nb, c2, nb, nb, work) }},
		{"TTQRT", 2, func() { copy(x, tri); copy(y, tri2) }, func() { kernel.TTQRT(nb, nb, ib, x, nb, y, nb, t2, nb, work) }},
		{"TTMQR", 6, inPlace, func() { kernel.TTMQR(true, nb, nb, ib, vtt, nb, tTT, nb, c1, nb, c2, nb, nb, work) }},
		{"GEMM", 6, inPlace, func() { kernel.GEMM(nb, nb, nb, full, nb, c1, nb, c2, nb, work) }},
	}
	for _, c := range cases {
		b.Run(prefix+c.name, func(b *testing.B) {
			b.ResetTimer()
			var kernelTime time.Duration
			for i := 0; i < b.N; i++ {
				c.restore()
				t0 := time.Now()
				c.f()
				kernelTime += time.Since(t0)
			}
			flops := flopScale * float64(c.weight) * float64(nb*nb*nb) / 3
			b.ReportMetric(flops*float64(b.N)/kernelTime.Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(kernelTime.Seconds()*1e6/float64(b.N), "kernel-µs/op")
		})
	}
}

func BenchmarkFigure5KernelsDouble(b *testing.B) { benchFigureKernels[float64](b, "") }

func BenchmarkFigure4KernelsDoubleComplex(b *testing.B) { benchFigureKernels[complex128](b, "Z") }

func BenchmarkFigure5KernelsSingle(b *testing.B) { benchFigureKernels[float32](b, "S") }

func BenchmarkFigure4KernelsSingleComplex(b *testing.B) { benchFigureKernels[complex64](b, "C") }

// --- Tables 6–9 / experimental runs: end-to-end factorization --------------------

// benchFactor runs a real factorization and reports GFLOP/s, the
// "experimental" measurement of Section 4 at host scale.
func benchFactor(b *testing.B, alg Algorithm, kern Kernels, p, q int, complexArith bool) {
	const nb, ib = 40, 16
	m, n := p*nb, q*nb
	opt := Options{Algorithm: alg, Kernels: kern, TileSize: nb, InnerBlock: ib}
	flops := model.Flops(m, n)
	if complexArith {
		flops = model.ComplexFlops(m, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if complexArith {
			b.StopTimer()
			a := RandomMat[complex128](m, n, int64(i))
			b.StartTimer()
			if _, err := FactorComplex(a, opt); err != nil {
				b.Fatal(err)
			}
		} else {
			b.StopTimer()
			a := RandomDense(m, n, int64(i))
			b.StartTimer()
			if _, err := Factor(a, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkTable6GreedyVsPlasmaDouble(b *testing.B) {
	for _, q := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("Greedy/q=%d", q), func(b *testing.B) { benchFactor(b, Greedy, TT, 12, q, false) })
		b.Run(fmt.Sprintf("PlasmaTreeTT/q=%d", q), func(b *testing.B) {
			bs, _ := BestPlasmaBS(12, q, TT)
			const nb, ib = 40, 16
			opt := Options{Algorithm: PlasmaTree, BS: bs, TileSize: nb, InnerBlock: ib}
			flops := model.Flops(12*nb, q*nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := RandomDense(12*nb, q*nb, int64(i))
				b.StartTimer()
				if _, err := Factor(a, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkTable7GreedyDoubleComplex(b *testing.B) {
	for _, q := range []int{1, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) { benchFactor(b, Greedy, TT, 8, q, true) })
	}
}

func BenchmarkTable8GreedyVsFibonacciDouble(b *testing.B) {
	b.Run("Greedy", func(b *testing.B) { benchFactor(b, Greedy, TT, 12, 4, false) })
	b.Run("Fibonacci", func(b *testing.B) { benchFactor(b, Fibonacci, TT, 12, 4, false) })
}

func BenchmarkTable9FibonacciDoubleComplex(b *testing.B) {
	b.Run("Fibonacci", func(b *testing.B) { benchFactor(b, Fibonacci, TT, 8, 4, true) })
}

func BenchmarkFigure6FlatTreeTSDouble(b *testing.B) {
	b.Run("FlatTreeTS", func(b *testing.B) { benchFactor(b, FlatTree, TS, 12, 4, false) })
	b.Run("FlatTreeTT", func(b *testing.B) { benchFactor(b, FlatTree, TT, 12, 4, false) })
}

// --- least-squares solve ----------------------------------------------------------

// The paper's least-squares regime (p = 40, q = 4) at the repo benchmark's
// tall_ls sizes.
const solveLSM, solveLSN, solveLSNB, solveLSIB = 2560, 256, 64, 16

// BenchmarkSolveLS times SolveLS alone (the factorization is set-up) at 1, 8
// and 64 right-hand sides. GFLOP/s uses the Qᴴb model count 4·m·n·nrhs, so
// the narrow vector-form appliers (nrhs < 4) and the block-reflector path
// read on one scale.
func BenchmarkSolveLS(b *testing.B) {
	a := RandomDense(solveLSM, solveLSN, 1)
	f, err := Factor(a, Options{TileSize: solveLSNB, InnerBlock: solveLSIB})
	if err != nil {
		b.Fatal(err)
	}
	for _, nrhs := range []int{1, 8, 64} {
		rhs := RandomDense(solveLSM, nrhs, 2)
		b.Run(fmt.Sprintf("nrhs=%d", nrhs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.SolveLS(rhs); err != nil {
					b.Fatal(err)
				}
			}
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(sec*1e3, "ms/op")
			b.ReportMetric(4*float64(solveLSM)*float64(solveLSN)*float64(nrhs)/sec/1e9, "GFLOP/s")
		})
	}
}

// --- streaming TSQR ---------------------------------------------------------------

// benchStreamAppend measures streaming ingestion throughput in rows/sec:
// batches of `batch` rows merged into a resident n×n triangle, with an
// optional tracked right-hand side.
func benchStreamAppend(b *testing.B, n, nb, batch, nrhs int, complexArith bool) {
	b.Helper()
	opt := Options{TileSize: nb, InnerBlock: 32}
	if complexArith {
		s, err := NewStreamOf[complex128](n, opt)
		if err != nil {
			b.Fatal(err)
		}
		data := RandomMat[complex128](batch, n, 1)
		rhs := RandomMat[complex128](batch, max(nrhs, 1), 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if nrhs > 0 {
				err = s.AppendRHS(data, rhs)
			} else {
				err = s.AppendRows(data)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "rows/s")
		return
	}
	s, err := NewStreamOf[float64](n, opt)
	if err != nil {
		b.Fatal(err)
	}
	data := RandomDense(batch, n, 1)
	rhs := RandomDense(batch, max(nrhs, 1), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nrhs > 0 {
			err = s.AppendRHS(data, rhs)
		} else {
			err = s.AppendRows(data)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkStreamAppendDouble(b *testing.B) {
	for _, c := range []struct{ n, batch int }{{128, 128}, {256, 256}, {512, 512}} {
		b.Run(fmt.Sprintf("n=%d/batch=%d", c.n, c.batch), func(b *testing.B) {
			benchStreamAppend(b, c.n, 128, c.batch, 0, false)
		})
	}
}

func BenchmarkStreamAppendRHSDouble(b *testing.B) {
	b.Run("n=256/batch=256/rhs=1", func(b *testing.B) {
		benchStreamAppend(b, 256, 128, 256, 1, false)
	})
}

func BenchmarkStreamAppendDoubleComplex(b *testing.B) {
	b.Run("n=256/batch=256", func(b *testing.B) {
		benchStreamAppend(b, 256, 128, 256, 0, true)
	})
}

func BenchmarkStreamSolveLS(b *testing.B) {
	const n, batch = 256, 256
	s, err := NewStreamOf[float64](n, Options{TileSize: 128, InnerBlock: 32})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.AppendRHS(RandomDense(batch, n, int64(i)), RandomDense(batch, 1, int64(10+i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveLS(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamWindowAppend is the sliding-window cost table: one
// AppendRHS into a full 2048-row window at n = 256 (so every append also
// evicts), with a SolveLS read after every `read`-th append. Small batches
// read after every append are the regime a reduction-tree window pays most
// for — each read re-merges triangles — and large batches read rarely the
// one it is built for.
func BenchmarkStreamWindowAppend(b *testing.B) {
	const n, window, poolRows = 256, 2048, 4096
	pool := RandomDense(poolRows, n, 1) // twice the window: no row is ever held twice
	rhs := RandomDense(poolRows, 1, 2)
	for _, batch := range []int{1, 16, 256} {
		for _, read := range []int{1, 8} {
			b.Run(fmt.Sprintf("batch=%d/read=%d", batch, read), func(b *testing.B) {
				s, err := NewStreamOf[float64](n, Options{TileSize: 64, InnerBlock: 16, WindowRows: window})
				if err != nil {
					b.Fatal(err)
				}
				i := 0
				step := func() {
					r0 := i * batch % poolRows
					i++
					err := s.AppendRHS(
						&Dense{Rows: batch, Cols: n, Stride: n, Data: pool.Data[r0*n : (r0+batch)*n]},
						&Dense{Rows: batch, Cols: 1, Stride: 1, Data: rhs.Data[r0 : r0+batch]})
					if err == nil && i%read == 0 && s.Rows() >= n {
						_, err = s.SolveLS()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for i < window/batch+8 { // fill the window, then slide a little
					step()
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					step()
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// --- infrastructure benches -------------------------------------------------------

func BenchmarkDAGBuild40x40(b *testing.B) {
	l := core.GreedyList(40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildDAG(l, core.TT)
	}
}

func BenchmarkSchedulerOverhead(b *testing.B) {
	// Empty-kernel execution on a resident pool and a prebuilt plan isolates
	// runtime dispatch cost per task.
	d := core.BuildDAG(core.GreedyList(20, 10), core.TT)
	plan := sched.NewPlan(d)
	rt := sched.NewRuntime(2)
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Exec(plan, sched.Options{}, func(int32, *sched.Local) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumTasks()), "tasks/run")
}
