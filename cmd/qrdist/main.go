// Command qrdist drives a distributed CAQR factorization on one host: it
// starts the coordinator, spawns the workers (in-process goroutines by
// default, or with -worker separate processes of this same program), shards
// a random m×n system row-wise across them, and reports the result —
// rows/sec, bytes moved through the reduction tree, and how much of the
// wire time multi-round runs hid behind local factorization.
//
//	qrdist -m 2048 -n 256 -workers 2 -verify        # 2 in-process shards, check vs Factor
//	qrdist -workers 4 -rounds 8                      # multi-round run
//	qrdist -worker ...                               # one worker process per shard
//	qrdist -connect 127.0.0.1:7421                   # be one worker of that coordinator
//
// With -connect the program is one shard of somebody else's run: it
// connects to that coordinator, receives its rank, shard and reduction-tree
// peer table, and runs its rounds: it streams the shard into a TSQR
// aggregate (R, Qᵀb, residual) and sends it up the reduction tree. Every
// parameter comes over the wire, so no other flag applies. A worker whose
// coordinator connection drops aborts mid-round and exits 1.
//
// SIGTERM/SIGINT stops the run: the coordinator closes every worker
// connection, qrdist waits until every worker has exited, prints one line
// naming the interruption and exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/dist"
	"tiledqr/internal/engine"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

var (
	flagM       = flag.Int("m", 2048, "global rows")
	flagN       = flag.Int("n", 256, "columns")
	flagNB      = flag.Int("nb", 128, "tile size inside each shard")
	flagIB      = flag.Int("ib", 32, "inner blocking")
	flagWorkers = flag.Int("workers", 2, "worker shards")
	flagLocal   = flag.Int("local-workers", 0, "scheduler width per worker (0 = default)")
	flagRounds  = flag.Int("rounds", 1, "factor+reduce rounds")
	flagRHS     = flag.Int("rhs", 1, "right-hand-side columns (0 = R only)")
	flagPrec    = flag.String("prec", "d", "precision: d, s, z or c")
	flagSeed    = flag.Int64("seed", 1, "matrix seed")
	flagVerify  = flag.Bool("verify", false, "compare R and x against single-process Factor")
	flagWorker  = flag.Bool("worker", false, "run each shard in its own process (this program with -connect) instead of an in-process goroutine")
	flagConnect = flag.String("connect", "", "be a worker of the coordinator at this address; every other flag is ignored")
)

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	var err error
	switch {
	case *flagConnect != "":
		err = dist.RunWorker(ctx, *flagConnect)
	case *flagPrec == "d":
		err = run[float64](ctx)
	case *flagPrec == "s":
		err = run[float32](ctx)
	case *flagPrec == "z":
		err = run[complex128](ctx)
	case *flagPrec == "c":
		err = run[complex64](ctx)
	default:
		fmt.Fprintf(os.Stderr, "qrdist: unknown precision %q (want d, s, z or c)\n", *flagPrec)
		os.Exit(2)
	}
	if err != nil && ctx.Err() != nil {
		err = errors.New("interrupted by signal")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qrdist:", err)
		os.Exit(1)
	}
}

func run[T vec.Scalar](ctx context.Context) error {
	m, n, W := *flagM, *flagN, *flagWorkers
	coord, err := dist.NewCoordinator(dist.Config{
		Workers: W, NB: *flagNB, IB: *flagIB, Rounds: *flagRounds, LocalWorkers: *flagLocal,
	})
	if err != nil {
		return err
	}

	// reap closes the listener and waits for every worker started so far,
	// whatever happened: a worker whose coordinator is gone exits promptly.
	var procs []*exec.Cmd
	var workerErrs <-chan error
	reap := func(err error) error {
		coord.Close()
		for _, cmd := range procs {
			if werr := cmd.Wait(); werr != nil && err == nil {
				err = fmt.Errorf("worker exited: %w", werr)
			}
		}
		for i := 0; workerErrs != nil && i < W; i++ {
			if werr := <-workerErrs; werr != nil && err == nil {
				err = fmt.Errorf("worker failed: %w", werr)
			}
		}
		return err
	}
	if *flagWorker {
		self, err := os.Executable()
		if err != nil {
			return reap(err)
		}
		for i := 0; i < W; i++ {
			cmd := exec.Command(self, "-connect", coord.Addr())
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Start(); err != nil {
				return reap(fmt.Errorf("spawning worker %d: %w", i, err))
			}
			procs = append(procs, cmd)
		}
	} else {
		workerErrs = dist.SpawnLocal(ctx, coord.Addr(), W)
	}

	a := tile.RandDense[T](m, n, *flagSeed)
	var b *tile.Dense[T]
	if *flagRHS > 0 {
		b = tile.RandDense[T](m, *flagRHS, *flagSeed+1)
	}
	t0 := time.Now()
	res, err := dist.Run[T](ctx, coord, a, b)
	elapsed := time.Since(t0)
	if err := reap(err); err != nil {
		return err
	}

	st := res.Stats
	rowsPerSec := float64(m) * float64(*flagRounds) / elapsed.Seconds()
	fmt.Printf("qrdist: %d×%d over %d workers (%s), nb=%d ib=%d\n", m, n, W, *flagPrec, *flagNB, *flagIB)
	fmt.Printf("  %d rounds, %.2fs wall, %.0f rows/sec (%.0f rows/sec/shard)\n",
		*flagRounds, elapsed.Seconds(), rowsPerSec, rowsPerSec/float64(W))
	fmt.Printf("  wire: %.1f KiB sent, %.1f KiB received, overlap %.0f%% of comm hidden\n",
		float64(st.BytesSent)/1024, float64(st.BytesRecv)/1024, 100*st.OverlapFrac)
	fmt.Printf("  compute %.3fs, combine %.3fs, send %.3fs, recv-wait %.3fs across workers\n",
		float64(st.ComputeNS)/1e9, float64(st.CombineNS)/1e9,
		float64(st.SendNS)/1e9, float64(st.RecvWaitNS)/1e9)
	if b != nil {
		fmt.Printf("  residual ‖b − A·x‖_F = %.6e\n", res.Residual)
	}

	if *flagVerify {
		if err := verify(a, b, res); err != nil {
			return err
		}
		fmt.Println("  verify: R, x and residual agree with single-process Factor")
	}
	return nil
}

// verify checks the distributed R (after canonicalizing the diagonal
// phase, which elimination order does not fix), least-squares solution and
// residual norm against the single-process engine at a
// precision-appropriate tolerance.
func verify[T vec.Scalar](a, b *tile.Dense[T], res *dist.Result[T]) error {
	f, err := engine.Factor(a, engine.Config{
		Algorithm: core.Greedy, TileSize: *flagNB, InnerBlock: *flagIB,
		Env: engine.Env{Workers: *flagLocal},
	})
	if err != nil {
		return err
	}
	n := a.Cols
	tol := 1e-12
	switch any((*T)(nil)).(type) {
	case *float32, *complex64:
		tol = 2e-4
	}
	want := f.R().View(0, 0, n, n)
	got := res.R.Clone()
	canonicalizeR(want)
	canonicalizeR(got)
	if diff, lim := tile.MaxAbsDiff(got, want), tol*tile.FrobNorm(a); diff > lim {
		return fmt.Errorf("verify: distributed R deviates from single-process Factor by %g (tolerance %g)", diff, lim)
	}
	if b != nil {
		x, err := f.SolveLS(nil, b)
		if err != nil {
			return err
		}
		if diff, lim := tile.MaxAbsDiff(res.X, x), tol*tile.FrobNorm(x); diff > lim {
			return fmt.Errorf("verify: distributed x deviates from single-process SolveLS by %g (tolerance %g)", diff, lim)
		}
		r := tile.Mul(a, x)
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				r.Set(i, j, b.At(i, j)-r.At(i, j))
			}
		}
		if direct := tile.FrobNorm(r); math.Abs(res.Residual-direct) > tol*direct {
			return fmt.Errorf("verify: distributed residual %g deviates from the single-process ‖b − A·x‖_F = %g (relative tolerance %g)", res.Residual, direct, tol)
		}
	}
	return nil
}

// canonicalizeR scales each row so the diagonal is real and non-negative;
// R is unique only up to that phase.
func canonicalizeR[T vec.Scalar](r *tile.Dense[T]) {
	for i := 0; i < r.Rows && i < r.Cols; i++ {
		d := r.At(i, i)
		if abs := vec.Abs(d); abs != 0 {
			scale := vec.Conj(d) * vec.FromParts[T](1/abs, 0)
			for j := i; j < r.Cols; j++ {
				r.Set(i, j, r.At(i, j)*scale)
			}
		}
	}
}
