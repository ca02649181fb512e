// Command qrfactor factors a random m×n matrix with a chosen algorithm and
// reports timing and numerical quality — a command-line smoke test for the
// whole stack.
//
//	qrfactor -m 2000 -n 500 -alg Greedy -nb 100 -workers 4 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"tiledqr"
	"tiledqr/internal/model"
	"tiledqr/internal/tile"
)

func main() {
	m := flag.Int("m", 1200, "rows")
	n := flag.Int("n", 400, "columns")
	nb := flag.Int("nb", 100, "tile size")
	ib := flag.Int("ib", 0, "inner blocking (0 = library default, capped at nb)")
	algName := flag.String("alg", "Greedy", "Greedy|FlatTree|BinaryTree|Fibonacci|Asap|Grasap|PlasmaTree|HadriTree|Auto (any case)")
	bs := flag.Int("bs", 0, "PlasmaTree/HadriTree domain size (0 = PlasmaTree picks the best by critical path)")
	grasapK := flag.Int("grasapk", 1, "Grasap trailing Asap columns")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	kern := flag.String("kernels", "TT", "TT|TS")
	complexArith := flag.Bool("complex", false, "double complex instead of double")
	verify := flag.Bool("verify", false, "reconstruct Q and check residuals (O(m³), slow for large m)")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the execution")
	seed := flag.Int64("seed", 1, "matrix seed")
	flag.Parse()

	alg, err := tiledqr.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	kernels, err := tiledqr.ParseKernels(*kern)
	if err != nil {
		log.Fatal(err)
	}
	opt := tiledqr.Options{
		Algorithm: alg, Kernels: kernels, TileSize: *nb, InnerBlock: *ib,
		Workers: *workers, BS: *bs, GrasapK: *grasapK, Trace: *gantt,
	}
	if alg == tiledqr.AlgorithmAuto {
		// Under Auto the -nb/-ib defaults mean "choose for me" unless the
		// flags were given explicitly; resolve once and run the decision.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["nb"] {
			opt.TileSize = 0
		}
		resolved, err := opt.Resolve(*m, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Auto resolved to %v %v kernels, nb=%d, ib=%d\n",
			resolved.Algorithm, resolved.Kernels, resolved.TileSize, resolved.InnerBlock)
		opt = resolved
		alg, *nb = resolved.Algorithm, resolved.TileSize
	}
	p := (*m + *nb - 1) / *nb
	q := (*n + *nb - 1) / *nb
	if alg == tiledqr.PlasmaTree && *bs == 0 {
		best, _ := tiledqr.BestPlasmaBS(p, q, kernels)
		opt.BS = best
		fmt.Printf("PlasmaTree: using BS=%d (best critical path)\n", best)
	}

	cp, err := tiledqr.CriticalPath(alg, p, q, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v(%v): %d×%d, %d×%d tiles of %d, critical path %d units\n",
		opt.Algorithm, opt.Kernels, *m, *n, p, q, *nb, cp)

	if *complexArith {
		err = run[complex128](*m, *n, *seed, opt, model.ComplexFlops(*m, *n), *verify, *gantt)
	} else {
		err = run[float64](*m, *n, *seed, opt, model.Flops(*m, *n), *verify, *gantt)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run factors one random m×n matrix in T's domain and reports timing,
// optionally residuals and the Gantt chart — one body for both arithmetics.
func run[T tiledqr.Scalar](m, n int, seed int64, opt tiledqr.Options, flops float64, verify, gantt bool) error {
	a := tiledqr.RandomMat[T](m, n, seed)
	start := time.Now()
	f, err := tiledqr.FactorOf(context.Background(), a, opt)
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("factored in %v (%.3f GFLOP/s, %d tasks)\n", el, flops/el.Seconds()/1e9, f.TaskCount())
	if verify {
		q, r := (*tile.Dense[T])(f.ThinQ()), (*tile.Dense[T])(f.R())
		fmt.Printf("‖A−QR‖/‖A‖ = %.2e   ‖QᴴQ−I‖ = %.2e\n",
			tile.ResidualQR((*tile.Dense[T])(a), q, r), tile.OrthoResidual(q))
	}
	if gantt {
		fmt.Print(f.GanttChart(100))
		fmt.Printf("parallel efficiency: %.0f%%\n", 100*f.Utilization().Overall)
	}
	return nil
}
