// Command qrstream measures the streaming TSQR subsystem: it ingests row
// batches into a tiledqr.Stream and reports sustained throughput in
// rows/sec — the serving-style metric of an online least-squares workload,
// where millions of small updates replace one big factorization.
//
//	qrstream -n 256 -batch 256 -batches 64          # throughput run
//	qrstream -n 256 -batch 256 -batches 64 -rhs 1   # with online least squares
//	qrstream -complex ...                           # double complex domain
//	qrstream -window 4096 ...                       # sliding window of recent rows
//	qrstream -forget 0.99 ...                       # exponential forgetting
//	qrstream -verify ...                            # also check against one-shot Factor
//
// With -verify the ingested rows are retained and re-factored in one shot
// — windowed runs re-factor only the retained window, forgetful runs weight
// each batch by its decay λ^(k/2) — and the reported deviation is the max
// elementwise difference of the two R factors after per-row sign alignment
// (should sit at rounding level). With -rhs the stream's least-squares
// solution and residual norm are checked too, against the one-shot
// factorization's SolveLS and ‖b − A·x‖_F.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"tiledqr"
	"tiledqr/internal/vec"
)

var (
	flagN       = flag.Int("n", 256, "columns of the streamed system")
	flagBatch   = flag.Int("batch", 256, "rows per appended batch")
	flagBatches = flag.Int("batches", 64, "number of batches to ingest")
	flagNB      = flag.Int("nb", 0, "tile size (0 = library default)")
	flagIB      = flag.Int("ib", 0, "inner blocking (0 = library default)")
	flagWorkers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	flagRHS     = flag.Int("rhs", 0, "right-hand-side columns to track (0 = R only)")
	flagComplex = flag.Bool("complex", false, "stream complex128 rows")
	flagVerify  = flag.Bool("verify", false, "re-factor the represented rows one-shot and compare R (and, with -rhs, x and the residual)")
	flagWindow  = flag.Int("window", 0, "sliding window: keep only the most recent rows (0 = keep everything, irrevocably)")
	flagForget  = flag.Float64("forget", 0, "exponential forgetting factor λ in (0,1] applied per append (0 = off)")
)

func main() {
	flag.Parse()
	if *flagN < 1 || *flagBatch < 1 || *flagBatches < 1 {
		fmt.Fprintln(os.Stderr, "qrstream: -n, -batch and -batches must be positive")
		os.Exit(2)
	}
	var err error
	if *flagComplex {
		err = run[complex128]("double complex", 16)
	} else {
		err = run[float64]("double", 8)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrstream:", err)
		os.Exit(1)
	}
}

func report(domain string, rows int64, elapsed time.Duration, residual float64, haveRHS bool) {
	rps := float64(*flagBatch) * float64(*flagBatches) / elapsed.Seconds()
	fmt.Printf("%s: ingested %d rows × %d cols in %d batches of %d — %.0f rows/sec (%.2f ms/batch)\n",
		domain, int64(*flagBatch)*int64(*flagBatches), *flagN, *flagBatches, *flagBatch, rps,
		elapsed.Seconds()*1e3/float64(*flagBatches))
	if *flagWindow > 0 {
		fmt.Printf("sliding window: stream represents the most recent %d rows\n", rows)
	}
	if haveRHS {
		fmt.Printf("running least-squares residual ‖b − A·X‖_F = %.6e\n", residual)
	}
}

// run ingests, times, reports and verifies in one generic body — the
// library API is precision-blind, so qrstream is too.
func run[T tiledqr.Scalar](domain string, elemBytes int) error {
	n, batch, batches := *flagN, *flagBatch, *flagBatches
	opt := tiledqr.Options{
		TileSize: *flagNB, InnerBlock: *flagIB, Workers: *flagWorkers,
		WindowRows: *flagWindow, Forget: *flagForget,
	}
	s, err := tiledqr.NewStreamOf[T](n, opt)
	if err != nil {
		return err
	}
	// Pre-generate the batches so the timed loop measures the merge alone.
	data := make([]*tiledqr.Mat[T], batches)
	rhs := make([]*tiledqr.Mat[T], batches)
	for i := range data {
		data[i] = tiledqr.RandomMat[T](batch, n, int64(i+1))
		if *flagRHS > 0 {
			rhs[i] = tiledqr.RandomMat[T](batch, *flagRHS, int64(1000+i))
		}
	}
	start := time.Now()
	for i := range data {
		if *flagRHS > 0 {
			err = s.AppendRHS(data[i], rhs[i])
		} else {
			err = s.AppendRows(data[i])
		}
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	resid, err := s.ResidualNorm()
	if err != nil {
		return err
	}
	report(domain, s.Rows(), elapsed, resid, *flagRHS > 0)
	if *flagRHS > 0 && s.Rows() >= int64(n) {
		if _, err := s.SolveLS(); err != nil {
			return err
		}
		fmt.Printf("SolveLS over %d retained Qᵀb rows: ok\n", n)
	}
	bound := "independent of rows ingested"
	if *flagWindow > 0 {
		bound = "steady state, O(n² + window)"
	}
	fmt.Printf("retained footprint: %d scalars (%.1f MiB) — %s\n",
		s.Footprint(), float64(s.Footprint())*float64(elemBytes)/(1<<20), bound)
	if *flagVerify {
		return verify(s, data, rhs, opt)
	}
	return nil
}

// verify re-factors the rows the stream currently represents — the most
// recent -window rows (all of them without a window), each batch weighted
// by its accumulated forgetting decay — and compares R factors after
// per-row sign alignment (the reflector construction keeps the diagonal
// real in the complex domains too, so the row ambiguity is ±1). With
// right-hand sides it compares the solution and the residual norm too.
func verify[T tiledqr.Scalar](s *tiledqr.Stream[T], data, rhs []*tiledqr.Mat[T], opt tiledqr.Options) error {
	n, batch, batches, nrhs := *flagN, *flagBatch, *flagBatches, *flagRHS
	total := batch * batches
	kept := total
	if *flagWindow > 0 && *flagWindow < total {
		kept = *flagWindow
	}
	first := total - kept
	all, b := tiledqr.NewMat[T](kept, n), tiledqr.NewMat[T](kept, max(nrhs, 1))
	for r := first; r < total; r++ {
		bi := r / batch
		w := 1.0
		if *flagForget > 0 && *flagForget < 1 {
			w = math.Pow(*flagForget, float64(batches-1-bi)/2)
		}
		for c := 0; c < n; c++ {
			all.Set(r-first, c, vec.FromParts[T](w, 0)*data[bi].At(r%batch, c))
		}
		for c := 0; c < nrhs; c++ {
			b.Set(r-first, c, vec.FromParts[T](w, 0)*rhs[bi].At(r%batch, c))
		}
	}
	refOpt := opt
	refOpt.WindowRows, refOpt.Forget = 0, 0
	f, err := tiledqr.FactorOf(nil, all, refOpt)
	if err != nil {
		return err
	}
	rStream, err := s.R()
	if err != nil {
		return err
	}
	rRef := f.R()
	var worst float64
	for i := 0; i < n; i++ {
		sign := T(1)
		if vec.RealPart(rStream.At(i, i))*vec.RealPart(rRef.At(i, i)) < 0 {
			sign = -1
		}
		for j := i; j < n; j++ {
			worst = math.Max(worst, vec.Abs(sign*rStream.At(i, j)-rRef.At(i, j)))
		}
	}
	fmt.Printf("verify: max |R_stream − R_oneshot| = %.3e (sign-aligned, %d represented rows)\n", worst, kept)
	// Forgetful runs accumulate rounding across the decay passes (and a
	// window re-merges its rows through a differently shaped tree than the
	// one-shot reference), so their bound is an order looser than pure accretion.
	tol := 1e-10
	if *flagWindow > 0 || *flagForget > 0 {
		tol = 1e-9
	}
	if worst > tol {
		return fmt.Errorf("verification failed: deviation %.3e", worst)
	}
	if nrhs == 0 || kept < n {
		return nil
	}
	x, err := s.SolveLS()
	if err != nil {
		return err
	}
	xRef, err := f.SolveLS(b)
	if err != nil {
		return err
	}
	resid, err := s.ResidualNorm()
	if err != nil {
		return err
	}
	// The reference residual ‖b − A·x‖_F, from the one-shot solution.
	ax := tiledqr.MulOf(all, xRef)
	for i := 0; i < kept; i++ {
		for c := 0; c < nrhs; c++ {
			ax.Set(i, c, b.At(i, c)-ax.At(i, c))
		}
	}
	residRef := tiledqr.FrobeniusNormOf(ax)
	var dx, xMax float64
	for i := 0; i < n; i++ {
		for c := 0; c < nrhs; c++ {
			dx = math.Max(dx, vec.Abs(x.At(i, c)-xRef.At(i, c)))
			xMax = math.Max(xMax, vec.Abs(xRef.At(i, c)))
		}
	}
	dx /= xMax
	dr := math.Abs(resid-residRef) / residRef
	fmt.Printf("verify: max |x_stream − x_oneshot| / max |x_oneshot| = %.3e, residual %.6e vs %.6e (relative %.3e)\n",
		dx, resid, residRef, dr)
	if dx > tol || dr > tol {
		return fmt.Errorf("verification failed: solution deviation %.3e, residual deviation %.3e", dx, dr)
	}
	return nil
}
