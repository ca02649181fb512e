// Command qrkernels regenerates Figures 4 and 5 of the paper: sequential
// kernel performance (GFLOP/s) versus tile size, in cache and out of cache,
// per precision.
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
//
// The paper's figures use double (d) and double complex (z); -prec also
// accepts the single-precision pair (s, c) the generic kernels open up.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
	"unsafe"

	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

var (
	flagIB     = flag.Int("ib", 32, "inner blocking")
	flagSizes  = flag.String("sizes", "100,200,300,400,500,600", "tile sizes to sweep")
	flagCache  = flag.Int("cachemb", 8, "assumed last-level cache size (MB) for the out-of-cache working set")
	flagReps   = flag.Int("minreps", 3, "minimum repetitions per measurement")
	flagPrec   = flag.String("prec", "z,d", "comma-separated precisions to sweep: d, z, s, c")
	flagFamily = flag.String("family", "", "pin the vec kernel family (generic|simd); default: the best available on this host")
)

// flops per kernel call at tile size nb, real arithmetic, from the Table 1
// weights (units of nb³/3).
func kernelFlops(weight, nb int) float64 {
	return float64(weight) * float64(nb) * float64(nb) * float64(nb) / 3
}

func main() {
	flag.Parse()
	if *flagFamily != "" {
		if err := vec.SetFamily(*flagFamily); err != nil {
			fmt.Fprintln(os.Stderr, "qrkernels:", err)
			os.Exit(2)
		}
	}
	fam := vec.ActiveFamily()
	if isa := vec.SIMDName(); isa != "" && fam == vec.FamilySIMD {
		fam += " (" + isa + ")"
	}
	fmt.Printf("kernel family: %s\n", fam)
	var sizes []int
	for _, s := range strings.Split(*flagSizes, ",") {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "qrkernels: bad -sizes entry %q in %q: want positive integers\n", s, *flagSizes)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}
	for _, prec := range strings.Split(*flagPrec, ",") {
		switch prec {
		case "d":
			sweep[float64]("Figure 5", "double", sizes)
		case "z":
			sweep[complex128]("Figure 4", "double complex", sizes)
		case "s":
			sweep[float32]("(single)", "single", sizes)
		case "c":
			sweep[complex64]("(single complex)", "single complex", sizes)
		default:
			fmt.Fprintf(os.Stderr, "unknown precision %q (want d, z, s or c)\n", prec)
			os.Exit(2)
		}
	}
	fmt.Println("\nratio = TS kernel speed over the equivalent TT pair (the paper's MKL kernels: ≈1.32)")
}

func sweep[T vec.Scalar](figure, prec string, sizes []int) {
	fmt.Printf("\n%s: sequential kernel GFLOP/s, %s precision (ib=%d)\n", figure, prec, *flagIB)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "nb\tcache\tGEQRT\tTTQRT\tGEQRT+TTQRT\tTSQRT\tratio\tUNMQR\tTTMQR\tUNMQR+TTMQR\tTSMQR\tratio\tGEMM\t")
	for _, nb := range sizes {
		for _, out := range []bool{false, true} {
			r := measureRow[T](nb, *flagIB, out)
			loc := "in"
			if out {
				loc = "out"
			}
			fmt.Fprintf(w, "%d\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
				nb, loc, r.geqrt, r.ttqrt, r.pairFactor, r.tsqrt, r.tsqrt/r.pairFactor,
				r.unmqr, r.ttmqr, r.pairUpdate, r.tsmqr, r.tsmqr/r.pairUpdate, r.gemm)
		}
	}
	w.Flush()
}

type row struct {
	geqrt, ttqrt, tsqrt, unmqr, ttmqr, tsmqr, gemm float64
	pairFactor, pairUpdate                         float64
}

// measureRow measures every kernel at one tile size. For out-of-cache runs
// the tile pool exceeds the configured cache size so that each call starts
// from cold tiles.
func measureRow[T vec.Scalar](nb, ib int, outOfCache bool) row {
	var z T
	elem := int(unsafe.Sizeof(z))
	np := 1
	if outOfCache {
		bytesPerSet := 4 * nb * nb * elem // the ~4 tiles a call touches
		np = (*flagCache)*1024*1024/bytesPerSet + 2
	}
	flopScale := 1.0
	if vec.IsComplex[T]() {
		flopScale = 4
	}
	var r row
	gflops := func(weight int, sec float64) float64 {
		return flopScale * kernelFlops(weight, nb) / sec / 1e9
	}
	m := newPool[T](nb, np)
	r.geqrt = gflops(4, m.time(func(i int) { m.geqrt(i) }))
	r.unmqr = gflops(6, m.time(func(i int) { m.unmqr(i) }))
	r.tsqrt = gflops(6, m.time(func(i int) { m.tsqrt(i) }))
	r.tsmqr = gflops(12, m.time(func(i int) { m.tsmqr(i) }))
	r.ttqrt = gflops(2, m.time(func(i int) { m.ttqrt(i) }))
	r.ttmqr = gflops(6, m.time(func(i int) { m.ttmqr(i) }))
	r.gemm = gflops(6, m.time(func(i int) { m.gemm(i) })) // 2nb³ flops = weight 6
	// A TT algorithm needs GEQRT+TTQRT to do one TSQRT's job: aggregate
	// rate = combined flops / combined time.
	fG, fT2 := kernelFlops(4, nb), kernelFlops(2, nb)
	r.pairFactor = (fG + fT2) / (fG/r.geqrt + fT2/r.ttqrt)
	fU, fTT := kernelFlops(6, nb), kernelFlops(6, nb)
	r.pairUpdate = (fU + fTT) / (fU/r.unmqr + fTT/r.ttmqr)
	return r
}

// pool owns reusable tile sets for the kernel measurements of one scalar
// domain — one generic pool instead of the former float64/complex128
// mirror pair.
type pool[T vec.Scalar] struct {
	nb, ib int
	aTri   []*tile.Dense[T] // triangular tops (post-GEQRT)
	full   []*tile.Dense[T]
	c1, c2 []*tile.Dense[T]
	vTS    []*tile.Dense[T] // TSQRT reflectors
	vTT    []*tile.Dense[T] // TTQRT reflectors (triangular)
	tf, t2 []T
	work   []T
	reps   int
}

func newPool[T vec.Scalar](nb, np int) *pool[T] {
	ib := *flagIB
	p := &pool[T]{nb: nb, ib: ib,
		tf: make([]T, ib*nb), t2: make([]T, ib*nb),
		work: make([]T, kernel.WorkLen(nb, ib)),
	}
	for i := 0; i < np; i++ {
		tri := tile.RandDense[T](nb, nb, int64(i))
		kernel.GEQRT(nb, nb, ib, tri.Data, tri.Stride, p.tf, nb, p.work)
		p.aTri = append(p.aTri, tri)
		p.full = append(p.full, tile.RandDense[T](nb, nb, int64(1000+i)))
		p.c1 = append(p.c1, tile.RandDense[T](nb, nb, int64(2000+i)))
		p.c2 = append(p.c2, tile.RandDense[T](nb, nb, int64(3000+i)))
		vts := tile.RandDense[T](nb, nb, int64(4000+i))
		kernel.TSQRT(nb, nb, ib, tri.Clone().Data, nb, vts.Data, nb, p.t2, nb, p.work)
		p.vTS = append(p.vTS, vts)
		vtt := tile.RandDense[T](nb, nb, int64(5000+i))
		kernel.GEQRT(nb, nb, ib, vtt.Data, nb, p.tf, nb, p.work)
		kernel.TTQRT(nb, nb, ib, tri.Clone().Data, nb, vtt.Data, nb, p.t2, nb, p.work)
		p.vTT = append(p.vTT, vtt)
	}
	// Aim for ~100 MFLOP per measurement (complex kernels carry 4× the
	// flops per element, so they reach it in fewer reps anyway).
	flopsPerCall := 2 * float64(nb) * float64(nb) * float64(nb)
	if vec.IsComplex[T]() {
		flopsPerCall *= 4
	}
	p.reps = 1 + int(1e8/flopsPerCall)
	if p.reps < *flagReps {
		p.reps = *flagReps
	}
	if np > 1 && p.reps < np {
		p.reps = np // touch the whole pool at least once
	}
	return p
}

func (p *pool[T]) time(f func(i int)) float64 {
	return measureLoop(p.reps, len(p.aTri), f)
}

// measureLoop runs f in batches of reps calls until at least 200 ms have
// been sampled, returning seconds per call; this keeps the cheap kernels
// (TTQRT is 3× shorter than GEQRT) out of timer-resolution noise.
func measureLoop(reps, np int, f func(i int)) float64 {
	total := 0
	start := time.Now()
	for {
		for r := 0; r < reps; r++ {
			f((total + r) % np)
		}
		total += reps
		if time.Since(start) >= 200*time.Millisecond {
			return time.Since(start).Seconds() / float64(total)
		}
	}
}

func (p *pool[T]) geqrt(i int) {
	kernel.GEQRT(p.nb, p.nb, p.ib, p.full[i].Data, p.nb, p.tf, p.nb, p.work)
}
func (p *pool[T]) unmqr(i int) {
	kernel.UNMQR(true, p.nb, p.nb, p.ib, p.aTri[i].Data, p.nb, p.tf, p.nb, p.c1[i].Data, p.nb, p.nb, p.work)
}
func (p *pool[T]) tsqrt(i int) {
	kernel.TSQRT(p.nb, p.nb, p.ib, p.aTri[i].Data, p.nb, p.full[i].Data, p.nb, p.t2, p.nb, p.work)
}
func (p *pool[T]) tsmqr(i int) {
	kernel.TSMQR(true, p.nb, p.nb, p.ib, p.vTS[i].Data, p.nb, p.t2, p.nb, p.c1[i].Data, p.nb, p.c2[i].Data, p.nb, p.nb, p.work)
}
func (p *pool[T]) ttqrt(i int) {
	kernel.TTQRT(p.nb, p.nb, p.ib, p.aTri[i].Data, p.nb, p.vTT[i].Data, p.nb, p.t2, p.nb, p.work)
}
func (p *pool[T]) ttmqr(i int) {
	kernel.TTMQR(true, p.nb, p.nb, p.ib, p.vTT[i].Data, p.nb, p.t2, p.nb, p.c1[i].Data, p.nb, p.c2[i].Data, p.nb, p.nb, p.work)
}
func (p *pool[T]) gemm(i int) {
	kernel.GEMM(p.nb, p.nb, p.nb, p.full[i].Data, p.nb, p.c1[i].Data, p.nb, p.c2[i].Data, p.nb, p.work)
}
