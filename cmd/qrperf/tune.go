package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"tiledqr"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/tune"
)

// tuneShapes is the decision-table grid of `qrperf -tune`: tall, square and
// wide shapes spanning latency-bound to area-bound regimes.
var tuneShapes = [][2]int{
	{256, 128}, {512, 128}, {512, 512}, {1024, 256},
	{2048, 256}, {256, 1024}, {2048, 2048},
}

// runTune dumps the autotuner's decision table for float64: the chosen
// (algorithm, kernel family, nb, ib) per shape with its predicted wall
// time, the model's margin over the runner-up configuration, and — with
// -measure — the measured wall time and the prediction error. The table
// uses the default width (sched.DefaultWorkers), the width an actual Auto
// factorization would resolve against.
func runTune(measure bool) {
	workers := sched.DefaultWorkers()
	fmt.Printf("autotuner decision table — float64, width %d (TILEDQR_WORKERS or GOMAXPROCS), kernel family %s\n", workers, familyBanner())
	fmt.Print("calibration: measured in-process, each (nb, ib) point on first use\n\n")
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	hdr := "m\tn\talgorithm\tkernels\tnb\tib\tgrid\tpred ms\tmargin\t"
	if measure {
		hdr += "meas ms\terr\tGFLOP/s\t"
	}
	fmt.Fprintln(w, hdr)
	for _, s := range tuneShapes {
		m, n := s[0], s[1]
		ranked := tune.Rank[float64](tune.Request{M: m, N: n, Workers: workers})
		if len(ranked) == 0 {
			continue
		}
		best := ranked[0]
		margin := "-"
		if len(ranked) > 1 && best.PredictedSec > 0 {
			margin = fmt.Sprintf("%.1f%%", (ranked[1].PredictedSec/best.PredictedSec-1)*100)
		}
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\t%d\t%d\t%d×%d\t%.2f\t%s\t",
			m, n, best.Algorithm, best.Kernels, best.NB, best.IB, best.P, best.Q,
			best.PredictedSec*1e3, margin)
		if measure {
			opt, err := tiledqr.Options{Algorithm: tiledqr.AlgorithmAuto}.Resolve(m, n)
			if err != nil {
				die(err)
			}
			meas := math.Inf(1) // best of three, in seconds
			for rep := 0; rep < 3; rep++ {
				meas = min(meas, factorSecs[float64](m, n, opt))
			}
			fmt.Fprintf(w, "%.2f\t%+.0f%%\t%.2f\t",
				meas*1e3, (meas/best.PredictedSec-1)*100, model.Flops(m, n)/meas/1e9)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("\npred: calibrated-kernel list-schedule simulation (roofline bound for huge grids)")
	fmt.Println("margin: predicted slowdown of the runner-up configuration")
	if !measure {
		fmt.Println("re-run with -measure for measured wall times and prediction error")
	}
}
