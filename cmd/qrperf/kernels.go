package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
	"unsafe"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

// gemmWeight is an nb×nb×nb GEMM's 2nb³ flops in Table 1 units of nb³/3.
const gemmWeight = 6

// gemmSecs times C += A·B on nb×nb tiles — the roofline reference of Figures
// 4–5 and the kernels JSON, which tune.MeasureKernelSecs leaves out because
// it is no Table 1 kernel. Nothing is restored between calls (C only
// accumulates).
func gemmSecs[T vec.Scalar](nb int) float64 {
	a := tile.RandDense[T](nb, nb, 2)
	b := tile.RandDense[T](nb, nb, 3)
	c := tile.RandDense[T](nb, nb, 4)
	work := make([]T, vec.GemmPackLen[T](nb, nb, nb))
	return tune.TimeKernel(func() {}, func() {
		kernel.GEMM(nb, nb, nb, a.Data, nb, b.Data, nb, c.Data, nb, work)
	}, sampleWindow)
}

// --- Figures 4 and 5 --------------------------------------------------------

// kernelFigure prints Figure 4 ("z") or 5 ("d"), or with -prec the same
// sweep in the precisions named there.
//
// The comparison of interest: a TT algorithm calls GEQRT+TTQRT where a TS
// algorithm calls one TSQRT (and UNMQR+TTMQR versus one TSMQR), so the
// figures report those pairs side by side, plus GEMM as the roofline
// reference. The paper's MKL kernels show a ratio TSQRT/(GEQRT+TTQRT) of
// about 1.32–1.34; the pure-Go kernels here show the same locality effect
// with their own constant.
//
// In-cache follows the No-Flush strategy (repeatedly time the same tiles);
// out-of-cache cycles over a working set larger than the last-level cache
// (MultCallFlushLRU), per Whaley & Castaldo [17] and Agullo et al. [1].
func kernelFigure(precs string) {
	if *flagPrec != "" {
		precs = *flagPrec
	}
	ib := 32 // the paper's, whatever the Section 4 experiments default to
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "ib" {
			ib = *flagIB
		}
	})
	sizes := intList("sizes", *flagSizes)
	fmt.Printf("kernel family: %s\n", familyBanner())
	for _, prec := range strings.Split(precs, ",") {
		switch prec {
		case "d":
			sweep[float64](sizes, ib)
		case "z":
			sweep[complex128](sizes, ib)
		case "s":
			sweep[float32](sizes, ib)
		case "c":
			sweep[complex64](sizes, ib)
		default:
			badUsage("unknown precision %q (want d, z, s or c)", prec)
		}
	}
	fmt.Println("\nratio = TS kernel speed over the equivalent TT pair (the paper's MKL kernels: ≈1.32)")
}

func sweep[T vec.Scalar](sizes []int, ib int) {
	figure := [...]string{"(single)", "Figure 5", "(single complex)", "Figure 4"}[vec.Prec[T]()]
	fmt.Printf("\n%s: sequential kernel GFLOP/s, %s precision (ib=%d)\n", figure, precName[T](), ib)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "nb\tcache\tGEQRT\tTTQRT\tGEQRT+TTQRT\tTSQRT\tratio\tUNMQR\tTTMQR\tUNMQR+TTMQR\tTSMQR\tratio\tGEMM\t")
	for _, nb := range sizes {
		row := func(loc string, sec kernelTimes, gemm float64) {
			rate := func(kinds ...core.Kind) float64 {
				// Several kinds: the aggregate rate of the calls a TT
				// algorithm makes to do one TS kernel's job, combined flops
				// over combined time.
				weight, s := 0, 0.0
				for _, k := range kinds {
					weight += k.Weight()
					s += sec[k]
				}
				return tune.Gflops[T](weight, nb, s)
			}
			pairFactor, pairUpdate := rate(core.KGEQRT, core.KTTQRT), rate(core.KUNMQR, core.KTTMQR)
			fmt.Fprintf(w, "%d\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
				nb, loc, rate(core.KGEQRT), rate(core.KTTQRT), pairFactor, rate(core.KTSQRT), rate(core.KTSQRT)/pairFactor,
				rate(core.KUNMQR), rate(core.KTTMQR), pairUpdate, rate(core.KTSMQR), rate(core.KTSMQR)/pairUpdate,
				tune.Gflops[T](gemmWeight, nb, gemm))
		}
		row("in", tune.MeasureKernelSecs[T](nb, ib, sampleWindow), gemmSecs[T](nb))
		sec, gemm := coldKernelSecs[T](nb, ib)
		row("out", sec, gemm)
	}
	w.Flush()
}

// coldKernelSecs is the out-of-cache measurement: every kernel (and GEMM) is
// called on a cycle of tile sets that together exceed the assumed last-level
// cache, so each call starts from cold tiles. It is the one timing loop in
// the repo that does not go through tune.TimeKernel, and cannot: restoring a
// tile's contents before a call would pull it back into cache, so the
// kernels here run on whatever the previous cycle left — the flop count does
// not depend on the values.
func coldKernelSecs[T vec.Scalar](nb, ib int) (kernelTimes, float64) {
	// One set is the tiles a call touches: tri a GEQRT output (R over V),
	// vTS and vTT the reflector tiles TSQRT and TTQRT leave, full, c1 and c2
	// plain data.
	type set struct{ tri, full, c1, c2, vTS, vTT []T }
	rand := func(seed int) []T { return tile.RandDense[T](nb, nb, int64(seed)).Data }
	tf, t2 := make([]T, ib*nb), make([]T, ib*nb)
	work := make([]T, kernel.WorkLen(nb, ib))
	var z T
	setBytes := 4 * nb * nb * int(unsafe.Sizeof(z)) // a call touches ~4 tiles
	sets := make([]set, *flagCache<<20/setBytes+2)
	for i := range sets {
		s := set{tri: rand(i), full: rand(1000 + i), c1: rand(2000 + i), c2: rand(3000 + i), vTS: rand(4000 + i), vTT: rand(5000 + i)}
		kernel.GEQRT(nb, nb, ib, s.tri, nb, tf, nb, work)
		kernel.TSQRT(nb, nb, ib, slices.Clone(s.tri), nb, s.vTS, nb, t2, nb, work)
		kernel.GEQRT(nb, nb, ib, s.vTT, nb, tf, nb, work)
		kernel.TTQRT(nb, nb, ib, slices.Clone(s.tri), nb, s.vTT, nb, t2, nb, work)
		sets[i] = s
	}
	// cold runs f over whole cycles of the sets until at least twice the
	// in-cache sampling window has been sampled, returning seconds per call;
	// this keeps the cheap kernels (TTQRT is 3× shorter than GEQRT) out of
	// timer-resolution noise.
	cold := func(f func(s *set)) float64 {
		calls := 0
		for start := time.Now(); ; {
			for i := range sets {
				f(&sets[i])
			}
			calls += len(sets)
			if el := time.Since(start); el >= 2*sampleWindow {
				return el.Seconds() / float64(calls)
			}
		}
	}
	return kernelTimes{
		core.KGEQRT: cold(func(s *set) { kernel.GEQRT(nb, nb, ib, s.full, nb, tf, nb, work) }),
		core.KUNMQR: cold(func(s *set) { kernel.UNMQR(true, nb, nb, ib, s.tri, nb, tf, nb, s.c1, nb, nb, work) }),
		core.KTSQRT: cold(func(s *set) { kernel.TSQRT(nb, nb, ib, s.tri, nb, s.full, nb, t2, nb, work) }),
		core.KTSMQR: cold(func(s *set) { kernel.TSMQR(true, nb, nb, ib, s.vTS, nb, t2, nb, s.c1, nb, s.c2, nb, nb, work) }),
		core.KTTQRT: cold(func(s *set) { kernel.TTQRT(nb, nb, ib, s.tri, nb, s.vTT, nb, t2, nb, work) }),
		core.KTTMQR: cold(func(s *set) { kernel.TTMQR(true, nb, nb, ib, s.vTT, nb, t2, nb, s.c1, nb, s.c2, nb, nb, work) }),
	}, cold(func(s *set) { kernel.GEMM(nb, nb, nb, s.full, nb, s.c1, nb, s.c2, nb, work) })
}

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
	// The paper's two precisions under the family active at startup (the
	// best available unless -family pinned one), measured since the seed —
	// the regression baselines below compare against these two maps.
	familyReport
	// The single-precision pair the generic engine opened up.
	Single        map[string]float64 `json:"single_gflops"`
	SingleComplex map[string]float64 `json:"single_complex_gflops"`
	// The same two precisions per vec kernel family, measured by flipping
	// the backend: tracks the generic and SIMD trajectories separately.
	Families map[string]familyReport `json:"families,omitempty"`
	Baseline json.RawMessage         `json:"baseline,omitempty"`
}

// familyReport is the GFLOP/s series of the paper's two precisions under
// whichever vec kernel family is active when measureFamily runs.
type familyReport struct {
	Double        map[string]float64 `json:"double_gflops"`
	DoubleComplex map[string]float64 `json:"double_complex_gflops"`
}

func measureFamily() familyReport {
	return familyReport{Double: kernelGflops[float64](), DoubleComplex: kernelGflops[complex128]()}
}

// kernelGflops measures the six kernels and GEMM at the benchmark shape.
func kernelGflops[T vec.Scalar]() map[string]float64 {
	out := map[string]float64{"GEMM": tune.Gflops[T](gemmWeight, benchNB, gemmSecs[T](benchNB))}
	for kind, sec := range tune.MeasureKernelSecs[T](benchNB, benchIB, sampleWindow) {
		out[kind.String()] = tune.Gflops[T](kind.Weight(), benchNB, sec)
	}
	return out
}

// writeKernelsJSON measures every kernel series and writes the report,
// preserving any "baseline" object already present in the target file.
func writeKernelsJSON(path string) error {
	rep := kernelsReport{
		NB: benchNB, IB: benchIB,
		familyReport:  measureFamily(),
		Single:        kernelGflops[float32](),
		SingleComplex: kernelGflops[complex64](),
		Families:      map[string]familyReport{},
	}
	startFam := vec.ActiveFamily()
	for _, fam := range vec.Families() {
		if vec.SetFamily(fam) == nil {
			rep.Families[fam] = measureFamily()
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
	fmt.Printf("wrote %s (nb=%d, ib=%d, family %s)\n", path, benchNB, benchIB, familyBanner())
	return nil
}
