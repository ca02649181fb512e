// Command qrperf regenerates the paper's evidence — the critical-path
// tables of Sections 2–3 (Tables 2–5), the sequential kernel rates of
// Figures 4–5 and the performance experiments of Section 4 (Tables 6–9,
// Figures 1–2 and 6–7) — and hosts the repo's kernel measurement tooling.
//
// The paper ran on a 48-core Opteron with MKL kernels. This reproduction
// measures OUR sequential kernel speeds on the host, then regenerates each
// Section 4 experiment three ways:
//
//	predicted — the paper's roofline model γpred = γseq·T/max(T/P, cp)
//	simulated — discrete-event list scheduling of the real task DAG on P
//	            virtual workers using the measured per-kernel durations
//	measured  — actual wall-clock execution on this host's cores
//
// Absolute GFLOP/s differ from the paper (pure Go vs MKL); the *shape* —
// which algorithm wins where, and by how much — is the reproduction target.
// The tables are platform-independent and match the paper exactly, up to
// the deviations listed in README.md, "Where this reproduction departs from
// the paper".
//
//	qrperf -experiment NAME              one experiment; `qrperf -h` lists the
//	                                     names (the registry in this file)
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
//	                                     *_gflops member) of new.json
//	                                     regressed more than tolerance percent
//	                                     below old.json; both are
//	                                     -kernels-json files
//
// Whole operations (Factor+SolveLS, stream appends, served requests,
// distributed rounds) are timed by `go run ./bench`, not here.
//
// Flags -p, -nb, -ib, -workers scale the Section 4 experiments (defaults are
// a laptop-sized version of the paper's p=40, nb=200, ib=32, P=48); -sizes,
// -cachemb and -prec shape Figures 4–5, which keep the paper's ib=32 unless
// -ib is given.
//
// -family pins the vec kernel family ("generic" or "simd") for every mode,
// so the experiments can be re-run per backend; without it the best family
// available on the host is used. -kernels-json additionally records a
// per-family series for the paper's two precisions by measuring the kernels
// under each family in turn.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/sim"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

var (
	flagP       = flag.Int("p", 40, "tile rows (paper: 40)")
	flagNB      = flag.Int("nb", 48, "tile size (paper: 200)")
	flagIB      = flag.Int("ib", 16, "inner blocking (paper: 32, which fig4/fig5 use unless -ib is given)")
	flagWorkers = flag.Int("workers", 48, "virtual processor count for prediction/simulation (paper: 48)")
	flagQs      = flag.String("q", "", "comma-separated q values (default: paper's grid)")
	flagMeasure = flag.Bool("measure", false, "also run real factorizations on the host (slow)")
	flagUnits   = flag.Bool("units", false, "use Table 1 unit weights instead of measured kernel times (pure-model ranking)")
	flagFamily  = flag.String("family", "", "pin the vec kernel family (generic|simd); default: the best available on this host")
	flagSizes   = flag.String("sizes", "100,200,300,400,500,600", "fig4/fig5: tile sizes to sweep")
	flagCache   = flag.Int("cachemb", 8, "fig4/fig5: assumed last-level cache size (MB) for the out-of-cache working set")
	flagPrec    = flag.String("prec", "", "fig4/fig5: comma-separated precisions (d, z, s, c) to sweep in place of the figure's own")
)

// experiments is the registry behind -experiment: dispatch and the usage
// text are both read off it, so a name cannot exist in one and not the other.
var experiments = []struct {
	name, what string
	run        func()
}{
	{"table2", "coarse-grain time-steps, 15×6 (Sameh-Kuck, Fibonacci, Greedy)", table2},
	{"table3", "tiled time-steps, 15×6 (FlatTree, Fibonacci, Greedy, BinaryTree, PlasmaTree BS=5)", table3},
	{"table4a", "Greedy vs Asap vs Grasap(1) tiled time-steps, 15×3", table4a},
	{"table4b", "Greedy vs Asap critical paths, p,q ∈ {16,32,64,128}", table4b},
	{"table5", "theoretical critical paths, p=40, q=1..40, with PlasmaTree BS sweep", table5},
	{"grasap", "extension: best Grasap(k) per shape (§3.2 asks for the best k)", tableGrasap},
	{"banded", "extension: exhaustive optimum for banded matrices vs the 22q−30 behind Theorem 1(3)", tableBanded},
	{"tables", "the seven tables above, in that order", func() {
		for _, table := range []func(){table2, table3, table4a, table4b, table5, tableGrasap, tableBanded} {
			table()
		}
	}},
	{"fig4", "sequential kernel GFLOP/s vs tile size, in and out of cache, double complex", func() { kernelFigure("z") }},
	{"fig5", "the same in double", func() { kernelFigure("d") }},
	{"fig1", "predicted+simulated GFLOP/s, TT algorithms", func() { figure(false, false) }},
	{"fig2", "overheads w.r.t. Greedy (TT)", func() { figure(false, true) }},
	{"fig6", "all kernels (adds TS algorithms)", func() { figure(true, false) }},
	{"fig7", "overheads w.r.t. Greedy (TT+TS)", func() { figure(true, true) }},
	{"table6", "Greedy vs PlasmaTree, double", func() { tableGreedyVs[float64]("PlasmaTree") }},
	{"table7", "Greedy vs PlasmaTree, double complex", func() { tableGreedyVs[complex128]("PlasmaTree") }},
	{"table8", "Greedy vs Fibonacci, double", func() { tableGreedyVs[float64]("Fibonacci") }},
	{"table9", "Greedy vs Fibonacci, double complex", func() { tableGreedyVs[complex128]("Fibonacci") }},
}

// usage is flag.Usage: the flag defaults, then the experiment registry.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: qrperf [flags]   (see the package comment for the modes)")
	flag.PrintDefaults()
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-8s %s\n", e.name, e.what)
	}
}

// die reports a fatal operational error on stderr and exits nonzero — the
// benchmarks never panic on failures a user can hit (I/O, bad flags, a
// factorization error): a stack trace is for bugs, not operations.
func die(err error) {
	fmt.Fprintln(os.Stderr, "qrperf:", err)
	os.Exit(1)
}

// badUsage reports a malformed flag value and exits 2, as flag.Parse does.
func badUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qrperf: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	experiment := flag.String("experiment", "fig1", "which table or figure to regenerate (listed below)")
	kernelsJSON := flag.String("kernels-json", "", "write kernel GFLOP/s to this file and exit")
	quick := flag.Bool("quick", false, "with -kernels-json: short smoke-sized run (CI)")
	tuneFlag := flag.Bool("tune", false, "dump the autotuner decision table (add -measure for predicted-vs-measured error) and exit")
	compare := flag.Bool("compare", false, "compare two -kernels-json files (old new) and exit nonzero on regressions beyond -tolerance")
	tolerance := flag.Float64("tolerance", 25, "with -compare: allowed per-series regression percent")
	flag.Usage = usage
	flag.Parse()
	if *flagFamily != "" {
		if err := vec.SetFamily(*flagFamily); err != nil {
			die(err)
		}
	}
	if *quick {
		sampleWindow = 20 * time.Millisecond
	}
	switch {
	case *compare:
		os.Exit(runCompare(flag.Args(), *tolerance))
	case *tuneFlag:
		runTune(*flagMeasure)
		return
	case *kernelsJSON != "":
		if err := writeKernelsJSON(*kernelsJSON); err != nil {
			die(err)
		}
		return
	}
	for _, e := range experiments {
		if e.name == *experiment {
			e.run()
			return
		}
	}
	badUsage("unknown experiment %q (qrperf -h lists them)", *experiment)
}

// familyBanner names the active vec kernel family, with its instruction set
// when that is the SIMD one.
func familyBanner() string {
	fam := vec.ActiveFamily()
	if isa := vec.SIMDName(); isa != "" && fam == vec.FamilySIMD {
		fam += " (" + isa + ")"
	}
	return fam
}

// intList parses the comma-separated positive integers of the named flag;
// an entry that is not one is a usage error, not a silently shorter sweep.
func intList(name, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			badUsage("bad -%s entry %q in %q: want positive integers", name, part, s)
		}
		out = append(out, v)
	}
	return out
}

// qGrid returns the -q values, or dflt when the flag is unset.
func qGrid(dflt []int) []int {
	if *flagQs == "" {
		return dflt
	}
	return intList("q", *flagQs)
}

// precName spells out T's precision as the paper's captions do.
func precName[T vec.Scalar]() string {
	return [...]string{"single", "double", "single complex", "double complex"}[vec.Prec[T]()]
}

// sampleWindow is the minimum sampling time per kernel measurement; -quick
// shrinks it so the CI bench gate finishes in seconds at the cost of a few
// percent of noise (absorbed by the gate's tolerance).
var sampleWindow = 100 * time.Millisecond

// kernelTimes holds seconds per kernel invocation at (nb, ib).
type kernelTimes = map[core.Kind]float64

// kernelSecs returns what the Section 4 experiments price a kernel call at:
// the host's measured seconds on nb×nb tiles of T (the repo's one in-cache
// timing harness, shared with the autotuner's calibration), or with -units
// the Table 1 weights as synthetic durations (1 unit = 1 µs), the
// idealized-model variant of each experiment.
func kernelSecs[T vec.Scalar](nb, ib int) kernelTimes {
	if !*flagUnits {
		return tune.MeasureKernelSecs[T](nb, ib, sampleWindow)
	}
	kt := kernelTimes{}
	for k := core.Kind(0); k < 6; k++ {
		kt[k] = float64(k.Weight()) * 1e-6
	}
	return kt
}

// flops is the operation count of an m×n factorization in T's domain.
func flops[T vec.Scalar](m, n int) float64 {
	if vec.IsComplex[T]() {
		return model.ComplexFlops(m, n)
	}
	return model.Flops(m, n)
}

// series evaluates one algorithm at one shape.
type series struct {
	pred, simu float64 // GFLOP/s
	bs         int     // PlasmaTree domain size used (0 otherwise)
}

// evaluate computes predicted and simulated GFLOP/s for an elimination list
// on the -p × q grid of -nb tiles with -workers virtual processors.
func evaluate[T vec.Scalar](list core.List, kern core.Kernels, kt kernelTimes, q int) series {
	workers := *flagWorkers
	d := core.BuildDAG(list, kern)
	weights := sim.KindWeights(d, kt)
	var seq float64
	for _, w := range weights {
		seq += w
	}
	fl := flops[T](*flagP**flagNB, q**flagNB)
	// Critical path in seconds (ASAP with measured durations).
	cpSec := sim.ListSchedule(d, d.NumTasks(), weights, sim.PriorityBLevel)
	pred := fl / max(seq/float64(workers), cpSec) / 1e9
	simSec := sim.ListSchedule(d, workers, weights, sim.PriorityBLevel)
	return series{pred: pred, simu: fl / simSec / 1e9}
}

// bestPlasma sweeps BS and returns the best simulated series.
func bestPlasma[T vec.Scalar](kern core.Kernels, kt kernelTimes, q int) series {
	var best series
	for bs := 1; bs <= *flagP; bs++ {
		s := evaluate[T](core.PlasmaTreeList(*flagP, q, bs), kern, kt, q)
		if s.simu > best.simu {
			best = s
			best.bs = bs
		}
	}
	return best
}

// factorSecs times one factorization of a random m×n matrix of T on the host.
func factorSecs[T vec.Scalar](m, n int, opt tiledqr.Options) float64 {
	a := tiledqr.RandomMat[T](m, n, 7)
	start := time.Now()
	if _, err := tiledqr.FactorOf(context.Background(), a, opt); err != nil {
		die(err)
	}
	return time.Since(start).Seconds()
}

// measured is the host's GFLOP/s on the experiment's -p × q grid.
func measured[T vec.Scalar](alg tiledqr.Algorithm, bs, q int) float64 {
	m, n := *flagP**flagNB, q**flagNB
	opt := tiledqr.Options{Algorithm: alg, Kernels: tiledqr.TT, TileSize: *flagNB, InnerBlock: *flagIB, BS: bs}
	return flops[T](m, n) / factorSecs[T](m, n, opt) / 1e9
}

// figure prints the Figure 1/6 (and 2/7 when relative) series in the
// paper's two precisions.
func figure(withTS, relative bool) {
	figureOf[float64](withTS, relative)
	figureOf[complex128](withTS, relative)
}

func figureOf[T vec.Scalar](withTS, relative bool) {
	p, nb, ib, workers := *flagP, *flagNB, *flagIB, *flagWorkers
	kt := kernelSecs[T](nb, ib)
	fmt.Printf("\n=== %s, p=%d, nb=%d, ib=%d, P=%d ===\n", precName[T](), p, nb, ib, workers)
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
		greedy := evaluate[T](core.GreedyList(p, q), core.TT, kt, q)
		fib := evaluate[T](core.FibonacciList(p, q), core.TT, kt, q)
		flatTT := evaluate[T](core.FlatTreeList(p, q), core.TT, kt, q)
		plasTT := bestPlasma[T](core.TT, kt, q)
		val := func(s series) string {
			if relative {
				return fmt.Sprintf("%.3f", greedy.simu/s.simu)
			}
			return fmt.Sprintf("%.2f", s.simu)
		}
		if withTS {
			flatTS := evaluate[T](core.FlatTreeList(p, q), core.TS, kt, q)
			plasTS := bestPlasma[T](core.TS, kt, q)
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

// tableGreedyVs prints the Table 6–9 comparisons.
func tableGreedyVs[T vec.Scalar](rival string) {
	p, nb := *flagP, *flagNB
	kt := kernelSecs[T](nb, *flagIB)
	fmt.Printf("\nGreedy versus %s (TT) — %s, p=%d, nb=%d, P=%d (simulated)\n", rival, precName[T](), p, nb, *flagWorkers)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "p\tq\tGreedy\t%s\tBS\toverhead\tgain\t\n", rival)
	for _, q := range qGrid([]int{1, 2, 4, 5, 10, 20, 40}) {
		if q > p {
			continue
		}
		greedy := evaluate[T](core.GreedyList(p, q), core.TT, kt, q)
		other, otherAlg := bestPlasma[T](core.TT, kt, q), tiledqr.PlasmaTree
		if rival == "Fibonacci" {
			other, otherAlg = evaluate[T](core.FibonacciList(p, q), core.TT, kt, q), tiledqr.Fibonacci
		}
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\t%d\t%.4f\t%.4f\t\n",
			p, q, greedy.simu, other.simu, other.bs, other.simu/greedy.simu, 1-other.simu/greedy.simu)
		if *flagMeasure {
			fmt.Fprintf(w, "\t\t%.3f\t%.3f\t\t(measured on host, %d cores)\t\t\n",
				measured[T](tiledqr.Greedy, 0, q), measured[T](otherAlg, other.bs, q), sched.DefaultWorkers())
		}
	}
	w.Flush()
}
