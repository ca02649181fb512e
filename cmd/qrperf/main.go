// Command qrperf regenerates the performance experiments of Section 4 of
// the paper (Tables 6–9, Figures 1–3 and 6–8).
//
// The paper ran on a 48-core Opteron with MKL kernels. This reproduction
// measures OUR sequential kernel speeds on the host, then regenerates each
// experiment three ways:
//
//	predicted — the paper's roofline model γpred = γseq·T/max(T/P, cp)
//	simulated — discrete-event list scheduling of the real task DAG on P
//	            virtual workers using the measured per-kernel durations
//	measured  — actual wall-clock execution on this host's cores
//
// Absolute GFLOP/s differ from the paper (pure Go vs MKL); the *shape* —
// which algorithm wins where, and by how much — is the reproduction target.
//
//	qrperf -experiment fig1              predicted+simulated GFLOP/s, TT algorithms
//	qrperf -experiment fig2              overheads w.r.t. Greedy (TT)
//	qrperf -experiment fig6              all kernels (adds TS algorithms)
//	qrperf -experiment fig7              overheads w.r.t. Greedy (TT+TS)
//	qrperf -experiment table6 .. table9  Greedy vs PlasmaTree / Fibonacci, double / double complex
//	qrperf -kernels-json FILE [-quick]   measure every sequential kernel at the
//	                                     benchmark shape (nb=128, ib=32) and
//	                                     write the GFLOP/s figures to FILE — the
//	                                     kernel trajectory record tracked across
//	                                     PRs (a "baseline" object already in
//	                                     FILE is preserved verbatim)
//	qrperf -tune [-measure]              dump the autotuner's decision table:
//	                                     the (algorithm, kernel family, nb, ib)
//	                                     AlgorithmAuto picks per shape with its
//	                                     predicted time, and with -measure the
//	                                     measured time and prediction error
//	qrperf -compare old.json new.json [-tolerance 25]
//	                                     CI benchmark-regression gate: exits
//	                                     nonzero when any rate series (a
//	                                     *_gflops member or a *_per_sec value)
//	                                     of new.json regressed more than
//	                                     tolerance percent below old.json; reads
//	                                     -kernels-json files and qrload -json
//	                                     reports alike
//
// Whole operations (Factor+SolveLS, stream appends, served requests,
// distributed rounds) are timed by `go run ./bench`, not here.
//
// Flags -p, -nb, -ib, -workers scale the experiment (defaults are a
// laptop-sized version of the paper's p=40, nb=200, ib=32, P=48).
//
// -family pins the vec kernel family ("generic" or "simd") for every mode,
// so the experiments can be re-run per backend; without it the best family
// available on the host is used. -kernels-json additionally records a
// per-family series for the paper's two precisions by measuring the kernels
// under each family in turn.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/model"
	"tiledqr/internal/sim"
	"tiledqr/internal/tile"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

var (
	flagP       = flag.Int("p", 40, "tile rows (paper: 40)")
	flagNB      = flag.Int("nb", 48, "tile size (paper: 200)")
	flagIB      = flag.Int("ib", 16, "inner blocking (paper: 32)")
	flagWorkers = flag.Int("workers", 48, "virtual processor count for prediction/simulation (paper: 48)")
	flagQs      = flag.String("q", "", "comma-separated q values (default: paper's grid)")
	flagMeasure = flag.Bool("measure", false, "also run real factorizations on the host (slow)")
	flagUnits   = flag.Bool("units", false, "use Table 1 unit weights instead of measured kernel times (pure-model ranking)")
	flagFamily  = flag.String("family", "", "pin the vec kernel family (generic|simd); default: the best available on this host")
)

// unitKernelTimes returns Table 1 weights as synthetic durations (1 unit =
// 1 µs), for the idealized-model variant of each experiment.
func unitKernelTimes() kernelTimes {
	kt := kernelTimes{}
	for k := core.Kind(0); k < 6; k++ {
		kt[k] = float64(k.Weight()) * 1e-6
	}
	return kt
}

// die reports a fatal operational error on stderr and exits nonzero — the
// benchmarks never panic on failures a user can hit (I/O, bad flags, a
// factorization error): a stack trace is for bugs, not operations.
func die(err error) {
	fmt.Fprintln(os.Stderr, "qrperf:", err)
	os.Exit(1)
}

func main() {
	experiment := flag.String("experiment", "fig1", "fig1|fig2|fig6|fig7|table6|table7|table8|table9")
	kernelsJSON := flag.String("kernels-json", "", "write kernel GFLOP/s to this file and exit")
	quick := flag.Bool("quick", false, "with -kernels-json: short smoke-sized run (CI)")
	tuneFlag := flag.Bool("tune", false, "dump the autotuner decision table (add -measure for predicted-vs-measured error) and exit")
	compare := flag.Bool("compare", false, "compare two JSON reports (old new: -kernels-json files or qrload -json reports) and exit nonzero on regressions beyond -tolerance")
	tolerance := flag.Float64("tolerance", 25, "with -compare: allowed per-series regression percent")
	flag.Parse()
	if *flagFamily != "" {
		if err := vec.SetFamily(*flagFamily); err != nil {
			die(err)
		}
	}
	if *quick {
		sampleWindow = 20 * time.Millisecond
	}
	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance))
	}
	if *tuneFlag {
		runTune(*flagMeasure)
		return
	}
	if *kernelsJSON != "" {
		if err := writeKernelsJSON(*kernelsJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	switch *experiment {
	case "fig1":
		figure(false, false)
	case "fig2":
		figure(false, true)
	case "fig6":
		figure(true, false)
	case "fig7":
		figure(true, true)
	case "table6":
		tableGreedyVs("PlasmaTree", false)
	case "table7":
		tableGreedyVs("PlasmaTree", true)
	case "table8":
		tableGreedyVs("Fibonacci", false)
	case "table9":
		tableGreedyVs("Fibonacci", true)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// kernelTimes holds measured seconds per kernel invocation at (nb, ib).
type kernelTimes map[core.Kind]float64

// measureKernels times each of the six kernels on random nb×nb tiles for
// the double or double-complex domain (the two the paper's experiments
// sweep), using the adaptive timeIt so small tile sizes still get stable
// samples.
func measureKernels(nb, ib int, complexArith bool) kernelTimes {
	if complexArith {
		return measureKernelsT[complex128](nb, ib)
	}
	return measureKernelsT[float64](nb, ib)
}

// measureKernelsT times each of the six kernels on random nb×nb tiles of
// one scalar domain, delegating to the repo's single kernel-timing harness
// (shared with the autotuner's calibration) at this command's sampling
// window.
func measureKernelsT[T vec.Scalar](nb, ib int) kernelTimes {
	return kernelTimes(tune.MeasureKernelSecs[T](nb, ib, sampleWindow))
}

// series evaluates one algorithm at one shape.
type series struct {
	pred, simu, meas float64 // GFLOP/s
	bs               int     // PlasmaTree domain size used (0 otherwise)
}

// evaluate computes predicted and simulated GFLOP/s for an elimination list.
func evaluate(list core.List, kern core.Kernels, kt kernelTimes, p, q, nb, workers int, complexArith bool) series {
	d := core.BuildDAG(list, kern)
	weights := sim.KindWeights(d, kt)
	var seq float64
	for _, w := range weights {
		seq += w
	}
	flops := model.Flops(p*nb, q*nb)
	if complexArith {
		flops = model.ComplexFlops(p*nb, q*nb)
	}
	// Critical path in seconds (ASAP with measured durations).
	cpSec := sim.ListSchedule(d, d.NumTasks(), weights, sim.PriorityBLevel)
	pred := flops / max(seq/float64(workers), cpSec) / 1e9
	simSec := sim.ListSchedule(d, workers, weights, sim.PriorityBLevel)
	return series{pred: pred, simu: flops / simSec / 1e9}
}

// bestPlasma sweeps BS and returns the best simulated series.
func bestPlasma(kern core.Kernels, kt kernelTimes, p, q, nb, workers int, complexArith bool) series {
	var best series
	for bs := 1; bs <= p; bs++ {
		s := evaluate(core.PlasmaTreeList(p, q, bs), kern, kt, p, q, nb, workers, complexArith)
		if s.simu > best.simu {
			best = s
			best.bs = bs
		}
	}
	return best
}

// measured runs a real factorization on the host and returns its GFLOP/s.
func measured(alg tiledqr.Algorithm, kern tiledqr.Kernels, bs, p, q, nb, ib int, complexArith bool) float64 {
	opt := tiledqr.Options{Algorithm: alg, Kernels: kern, TileSize: nb, InnerBlock: ib, BS: bs}
	if complexArith {
		return model.ComplexFlops(p*nb, q*nb) / factorSecs[complex128](p*nb, q*nb, opt) / 1e9
	}
	return model.Flops(p*nb, q*nb) / factorSecs[float64](p*nb, q*nb, opt) / 1e9
}

// factorSecs times one factorization of a random m×n matrix in T's domain.
func factorSecs[T tiledqr.Scalar](m, n int, opt tiledqr.Options) float64 {
	a := tiledqr.RandomMat[T](m, n, 7)
	start := time.Now()
	if _, err := tiledqr.FactorOf(context.Background(), a, opt); err != nil {
		die(err)
	}
	return time.Since(start).Seconds()
}

// qGrid returns the -q values, or dflt when the flag is unset; an entry
// that is not a positive integer is a usage error, not a silently shorter
// sweep.
func qGrid(dflt []int) []int {
	if *flagQs == "" {
		return dflt
	}
	var out []int
	for _, part := range strings.Split(*flagQs, ",") {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "qrperf: bad -q entry %q in %q: want positive integers\n", part, *flagQs)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// figure prints the Figure 1/6 (and 2/7 when relative) series.
func figure(withTS, relative bool) {
	p, nb, ib, workers := *flagP, *flagNB, *flagIB, *flagWorkers
	for _, complexArith := range []bool{false, true} {
		prec := "double"
		if complexArith {
			prec = "double complex"
		}
		kt := measureKernels(nb, ib, complexArith)
		if *flagUnits {
			kt = unitKernelTimes()
		}
		fmt.Printf("\n=== %s, p=%d, nb=%d, ib=%d, P=%d ===\n", prec, p, nb, ib, workers)
		fmt.Printf("measured kernel times (µs): GEQRT %.1f  UNMQR %.1f  TSQRT %.1f  TSMQR %.1f  TTQRT %.1f  TTMQR %.1f\n",
			kt[core.KGEQRT]*1e6, kt[core.KUNMQR]*1e6, kt[core.KTSQRT]*1e6,
			kt[core.KTSMQR]*1e6, kt[core.KTTQRT]*1e6, kt[core.KTTMQR]*1e6)
		w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
		hdr := "q\tFlatTree(TT)\tPlasma(TT)\tBS\tFibonacci\tGreedy\t"
		if withTS {
			hdr = "q\tFlatTree(TS)\tPlasma(TS)\tBS\tFlatTree(TT)\tPlasma(TT)\tBS\tFibonacci\tGreedy\t"
		}
		fmt.Fprintln(w, hdr)
		for _, q := range qGrid([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40}) {
			if q > p {
				continue
			}
			greedy := evaluate(core.GreedyList(p, q), core.TT, kt, p, q, nb, workers, complexArith)
			fib := evaluate(core.FibonacciList(p, q), core.TT, kt, p, q, nb, workers, complexArith)
			flatTT := evaluate(core.FlatTreeList(p, q), core.TT, kt, p, q, nb, workers, complexArith)
			plasTT := bestPlasma(core.TT, kt, p, q, nb, workers, complexArith)
			val := func(s series) string {
				if relative {
					return fmt.Sprintf("%.3f", greedy.simu/s.simu)
				}
				return fmt.Sprintf("%.2f", s.simu)
			}
			if withTS {
				flatTS := evaluate(core.FlatTreeList(p, q), core.TS, kt, p, q, nb, workers, complexArith)
				plasTS := bestPlasma(core.TS, kt, p, q, nb, workers, complexArith)
				fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%s\t%s\t%d\t%s\t%s\t\n", q,
					val(flatTS), val(plasTS), plasTS.bs, val(flatTT), val(plasTT), plasTT.bs, val(fib), val(greedy))
			} else {
				fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%s\t%s\t\n", q,
					val(flatTT), val(plasTT), plasTT.bs, val(fib), val(greedy))
			}
		}
		w.Flush()
		if relative {
			fmt.Println("values are simulated-time overheads w.r.t. Greedy (Greedy = 1, > 1 means slower than Greedy)")
		} else {
			fmt.Println("values are simulated GFLOP/s on the virtual machine (predicted roofline within a few % of these)")
		}
	}
}

// tableGreedyVs prints the Table 6–9 comparisons.
func tableGreedyVs(rival string, complexArith bool) {
	p, nb, ib, workers := *flagP, *flagNB, *flagIB, *flagWorkers
	prec := "double"
	if complexArith {
		prec = "double complex"
	}
	kt := measureKernels(nb, ib, complexArith)
	if *flagUnits {
		kt = unitKernelTimes()
	}
	fmt.Printf("\nGreedy versus %s (TT) — %s, p=%d, nb=%d, P=%d (simulated)\n", rival, prec, p, nb, workers)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "p\tq\tGreedy\t%s\tBS\toverhead\tgain\t\n", rival)
	for _, q := range qGrid([]int{1, 2, 4, 5, 10, 20, 40}) {
		if q > p {
			continue
		}
		greedy := evaluate(core.GreedyList(p, q), core.TT, kt, p, q, nb, workers, complexArith)
		var other series
		if rival == "PlasmaTree" {
			other = bestPlasma(core.TT, kt, p, q, nb, workers, complexArith)
		} else {
			other = evaluate(core.FibonacciList(p, q), core.TT, kt, p, q, nb, workers, complexArith)
		}
		if *flagMeasure {
			greedy.meas = measured(tiledqr.Greedy, tiledqr.TT, 0, p, q, nb, ib, complexArith)
			if rival == "PlasmaTree" {
				other.meas = measured(tiledqr.PlasmaTree, tiledqr.TT, other.bs, p, q, nb, ib, complexArith)
			} else {
				other.meas = measured(tiledqr.Fibonacci, tiledqr.TT, 0, p, q, nb, ib, complexArith)
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\t%d\t%.4f\t%.4f\t\n",
			p, q, greedy.simu, other.simu, other.bs, other.simu/greedy.simu, 1-other.simu/greedy.simu)
		if *flagMeasure {
			fmt.Fprintf(w, "\t\t%.3f\t%.3f\t\t(measured on host, %d cores)\t\t\n", greedy.meas, other.meas, defaultHostWorkers())
		}
	}
	w.Flush()
}

func defaultHostWorkers() int { return runtime.GOMAXPROCS(0) }

// --- kernel GFLOP/s JSON emitter (make bench) -------------------------------

// benchNB/benchIB fix the -kernels-json measurement shape to the benchmark
// harness constants of bench_test.go, so figures are comparable across PRs
// and hosts regardless of the experiment-scaling flags.
const (
	benchNB = 128
	benchIB = 32
)

type kernelsReport struct {
	NB int `json:"nb"`
	IB int `json:"ib"`
	// The paper's two precisions, measured since the seed — the regression
	// baselines below compare against these two maps.
	Double        map[string]float64 `json:"double_gflops"`
	DoubleComplex map[string]float64 `json:"double_complex_gflops"`
	// The single-precision pair the generic engine opened up.
	Single        map[string]float64 `json:"single_gflops"`
	SingleComplex map[string]float64 `json:"single_complex_gflops"`
	// Per-kernel-family series in the paper's two precisions, measured by
	// flipping the vec backend: tracks the generic and SIMD trajectories
	// separately (the top-level maps above use the family active at startup,
	// i.e. the best available unless -family pinned one).
	Families map[string]*familyReport `json:"families,omitempty"`
	Baseline json.RawMessage          `json:"baseline,omitempty"`
}

// familyReport is one vec kernel family's GFLOP/s series.
type familyReport struct {
	Double        map[string]float64 `json:"double_gflops"`
	DoubleComplex map[string]float64 `json:"double_complex_gflops"`
}

// sampleWindow is the minimum measurement window of timeIt; -quick shrinks
// it so the CI bench gate finishes in seconds at the cost of a few percent
// of noise (absorbed by the gate's tolerance).
var sampleWindow = 100 * time.Millisecond

// timeIt returns seconds per call, growing the repetition count until the
// sample is long enough to trust.
func timeIt(f func()) float64 {
	f() // warm up
	for reps := 1; ; reps *= 2 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if el := time.Since(start); el > sampleWindow || reps >= 1<<20 {
			return el.Seconds() / float64(reps)
		}
	}
}

// kernelGflops converts measureKernelsT timings at the benchmark shape
// into GFLOP/s (4 real flops per complex flop, as in the paper) and adds
// the GEMM reference kernel, which measureKernelsT does not time. One
// kernel table backs both the experiments and the JSON record.
func kernelGflops[T vec.Scalar]() map[string]float64 {
	const nb, ib = benchNB, benchIB
	flopScale := 1.0
	if vec.IsComplex[T]() {
		flopScale = 4
	}
	cube := float64(nb) * float64(nb) * float64(nb)
	out := make(map[string]float64, 7)
	for kind, sec := range measureKernelsT[T](nb, ib) {
		out[kind.String()] = flopScale * float64(kind.Weight()) * cube / 3 / sec / 1e9
	}
	a := tile.RandDense[T](nb, nb, 2)
	b := tile.RandDense[T](nb, nb, 3)
	c := tile.RandDense[T](nb, nb, 4)
	gemmWork := make([]T, vec.GemmPackLen[T](nb, nb, nb))
	gemmSec := timeIt(func() { kernel.GEMM(nb, nb, nb, a.Data, nb, b.Data, nb, c.Data, nb, gemmWork) })
	out["GEMM"] = flopScale * 6 * cube / 3 / gemmSec / 1e9
	return out
}

// writeKernelsJSON measures every kernel series and writes the report,
// preserving any "baseline" object already present in the target file.
func writeKernelsJSON(path string) error {
	rep := kernelsReport{
		NB:            benchNB,
		IB:            benchIB,
		Double:        kernelGflops[float64](),
		DoubleComplex: kernelGflops[complex128](),
		Single:        kernelGflops[float32](),
		SingleComplex: kernelGflops[complex64](),
	}
	rep.Families = map[string]*familyReport{}
	startFam := vec.ActiveFamily()
	for _, fam := range vec.Families() {
		if err := vec.SetFamily(fam); err != nil {
			continue
		}
		rep.Families[fam] = &familyReport{
			Double:        kernelGflops[float64](),
			DoubleComplex: kernelGflops[complex128](),
		}
	}
	if err := vec.SetFamily(startFam); err != nil {
		die(err)
	}
	if old, err := os.ReadFile(path); err == nil {
		var prev struct {
			Baseline json.RawMessage `json:"baseline"`
		}
		if json.Unmarshal(old, &prev) == nil && len(prev.Baseline) > 0 {
			rep.Baseline = prev.Baseline
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fam := vec.ActiveFamily()
	if isa := vec.SIMDName(); isa != "" && fam == vec.FamilySIMD {
		fam += " (" + isa + ")"
	}
	fmt.Printf("wrote %s (nb=%d, ib=%d, family %s)\n", path, benchNB, benchIB, fam)
	return nil
}
