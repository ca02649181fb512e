// Scheduling analysis: use the library's simulator the way Section 3 of the
// paper does — print the per-tile zeroing time-steps (the format of Table 3)
// for a chosen grid, compare critical paths across algorithms, and sweep
// worker counts through the bounded-processor list scheduler to see where
// the critical path stops mattering. Finally, demonstrate the persistent
// shared runtime: a fleet of concurrent factorizations submitted to one
// worker pool instead of each spawning its own.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"text/tabwriter"
	"time"

	"tiledqr"
)

func main() {
	p := flag.Int("p", 15, "tile rows")
	q := flag.Int("q", 6, "tile columns")
	alg := flag.String("alg", "Greedy", "algorithm: FlatTree|BinaryTree|Fibonacci|Greedy|Asap")
	flag.Parse()

	algorithm, err := tiledqr.ParseAlgorithm(*alg)
	if err != nil {
		log.Fatal(err)
	}

	// Per-tile zeroing time-steps, Table 3 style.
	zero, err := tiledqr.ZeroTimes(algorithm, *p, *q, tiledqr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v time-steps at which tile (i,k) is zeroed (p=%d, q=%d, TT kernels):\n\n", algorithm, *p, *q)
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "row\t")
	for k := 1; k <= min(*q, *p); k++ {
		fmt.Fprintf(w, "k=%d\t", k)
	}
	fmt.Fprintln(w)
	for i := 2; i <= *p; i++ {
		fmt.Fprintf(w, "%d\t", i)
		for k := 1; k <= min(i-1, min(*q, *p)); k++ {
			fmt.Fprintf(w, "%d\t", zero[i-1][k-1])
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	// Critical paths across algorithms.
	fmt.Printf("\ncritical paths (units of nb³/3 flops):\n")
	for _, a := range tiledqr.Algorithms {
		cp, err := tiledqr.CriticalPath(a, *p, *q, tiledqr.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10v %5d\n", a, cp)
	}
	bs, cp := tiledqr.BestPlasmaBS(*p, *q, tiledqr.TT)
	fmt.Printf("  %-10v %5d (BS=%d, exhaustive sweep)\n", "PlasmaTree", cp, bs)

	// Worker sweep: simulated makespan under list scheduling. The knee is
	// where the area bound T/P crosses the critical path.
	fmt.Printf("\nsimulated makespan by worker count (%v):\n", algorithm)
	fmt.Printf("  %8s %10s %10s\n", "workers", "makespan", "efficiency")
	seq, err := tiledqr.SimulateWorkers(algorithm, *p, *q, 1, tiledqr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16, 32, 48, 64} {
		ms, err := tiledqr.SimulateWorkers(algorithm, *p, *q, workers, tiledqr.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %8d %10.0f %9.0f%%\n", workers, ms, 100*seq/(float64(workers)*ms))
	}

	sharedRuntimeDemo(algorithm)
}

// sharedRuntimeDemo factors a fleet of matrices concurrently on one
// persistent runtime — the serving pattern: clients share the pool (with
// weighted-fair admission across their task DAGs) instead of each Factor
// call spawning its own workers.
func sharedRuntimeDemo(algorithm tiledqr.Algorithm) {
	const fleet = 8
	rt := tiledqr.NewRuntime(0) // 0 = GOMAXPROCS resident workers
	defer rt.Close()
	opt := tiledqr.Options{Algorithm: algorithm, TileSize: 64, InnerBlock: 16, Runtime: rt}

	fmt.Printf("\nshared runtime: %d concurrent factorizations on one %d-worker pool (%v):\n",
		fleet, rt.Workers(), algorithm)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleet; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := tiledqr.RandomDense(512, 256, int64(c+1))
			f, err := tiledqr.Factor(a, opt)
			if err != nil {
				log.Fatal(err)
			}
			_ = f.R()
		}(c)
	}
	wg.Wait()
	fmt.Printf("  fleet done in %v (a pool per caller would have spawned %d×%d workers)\n",
		time.Since(start).Round(time.Millisecond), fleet, rt.Workers())

	// Steady-state serving: reuse one factorization's storage across
	// repeated same-shape problems — zero allocations per Refactor.
	f := &tiledqr.Factorization{}
	if err := tiledqr.FactorInto(f, tiledqr.RandomDense(512, 256, 1), opt); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	const reps = 5
	for i := 0; i < reps; i++ {
		if err := f.Refactor(tiledqr.RandomDense(512, 256, int64(i+2))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  steady-state Refactor: %v per factorization, O(1) allocations\n",
		(time.Since(start) / reps).Round(time.Microsecond))
}
