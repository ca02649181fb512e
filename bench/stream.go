package main

import (
	"context"
	"fmt"
	"time"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/model"
	"tiledqr/internal/sched"
	"tiledqr/internal/stream"
	"tiledqr/internal/tile"
)

// streamShape sizes the sliding-window stream: batch rows arriving per
// append, columns, tile sizes, and how many batches the window holds.
type streamShape struct {
	batch, n, nb, ib, windowBatches int
}

const streamPool = 16 // distinct batches cycled through; more than a window holds

// streamInst appends row batches to a windowed stream and reads the
// solution back after every eighth append. With tracing off the stream
// slides its own window (Options.WindowRows). With tracing on, an
// equivalent stream retains all rows and the harness removes the oldest
// batch itself after each append — the two calls Append makes internally
// when a window is set — so that merge and downdate get separate spans.
type streamInst struct {
	sh       streamShape
	rt       *tiledqr.Runtime
	windowed *tiledqr.Stream[float64]
	explicit *tiledqr.Stream[float64] // traced pass
	batches  []*tiledqr.Dense
	rhs      []*tiledqr.Dense
	appended [2]int // appends so far, per mode
	last     struct {
		s     *tiledqr.Stream[float64]
		count int // appends to s when the last operation finished
		x     *tiledqr.Dense
	}
}

func newStreamInst(sh streamShape, seed int64) (*streamInst, error) {
	in := &streamInst{sh: sh, rt: tiledqr.NewRuntime(workers)}
	for i := 0; i < streamPool; i++ {
		in.batches = append(in.batches, tiledqr.RandomDense(sh.batch, sh.n, seed*1000+int64(2*i)))
		in.rhs = append(in.rhs, tiledqr.RandomDense(sh.batch, 1, seed*1000+int64(2*i+1)))
	}
	opt := tiledqr.Options{Kernels: tiledqr.TT, TileSize: sh.nb, InnerBlock: sh.ib, Runtime: in.rt}
	var err error
	opt.WindowRows = sh.batch * sh.windowBatches
	if in.windowed, err = tiledqr.NewStreamOf[float64](sh.n, opt); err != nil {
		return nil, err
	}
	opt.WindowRows = tiledqr.RetainAll
	if in.explicit, err = tiledqr.NewStreamOf[float64](sh.n, opt); err != nil {
		return nil, err
	}
	return in, nil
}

// warmOps fills the window and then some, so that every timed append also
// downdates.
func (in *streamInst) warmOps() int { return in.sh.windowBatches + 4 }

func (in *streamInst) op(_ int, sp *span) (sample, error) {
	// The flops a one-shot QR would spend on the rows a batch adds.
	out := sample{rows: in.sh.batch, flops: model.Flops(in.sh.batch+in.sh.n, in.sh.n) - model.Flops(in.sh.n, in.sh.n)}
	mode, s := 0, in.windowed
	if sp != nil {
		mode, s = 1, in.explicit
	}
	i := in.appended[mode] % streamPool
	as := sp.child("stream.append")
	err := s.AppendRHS(in.batches[i], in.rhs[i])
	as.finish()
	if err != nil {
		return out, err
	}
	if over := int(s.Rows()) - in.sh.batch*in.sh.windowBatches; sp != nil && over > 0 {
		ds := sp.child("stream.downdate")
		err = s.DowndateRows(over)
		ds.finish()
		if err != nil {
			return out, err
		}
	}
	in.appended[mode]++
	in.last.s, in.last.count = s, in.appended[mode]
	if in.appended[mode]%8 == 0 {
		ss := sp.child("stream.solve")
		in.last.x, err = s.SolveLS()
		ss.finish()
	}
	return out, err
}

func (in *streamInst) replay(int, *span) {}

// verify rebuilds the window from the batches the harness knows it holds
// and checks the resident triangle against it: ‖RᵀR − AᵀA‖_F/‖AᵀA‖_F, and
// the solution of a fresh read against the semi-normal equations.
func (in *streamInst) verify() (float64, error) {
	s := in.last.s
	if s == nil {
		return 0, fmt.Errorf("no operation completed")
	}
	held := min(in.last.count, in.sh.windowBatches)
	if int(s.Rows()) != held*in.sh.batch {
		return 0, fmt.Errorf("stream holds %d rows, want %d", s.Rows(), held*in.sh.batch)
	}
	a := tile.NewDense[float64](held*in.sh.batch, in.sh.n)
	b := tile.NewDense[float64](held*in.sh.batch, 1)
	for k := 0; k < held; k++ {
		i := (in.last.count - held + k) % streamPool
		copy(a.Data[k*in.sh.batch*in.sh.n:], in.batches[i].Data)
		copy(b.Data[k*in.sh.batch:], in.rhs[i].Data)
	}
	r, err := s.R()
	if err != nil {
		return 0, err
	}
	x, err := s.SolveLS()
	if err != nil {
		return 0, err
	}
	rd := (*tile.Dense[float64])(r)
	dx, err := relDiff((*tile.Dense[float64])(x), solveFromR(a, rd, b))
	if err != nil {
		return 0, err
	}
	return max(gramResidual(a, rd), dx) / eps, nil
}

func (in *streamInst) layers(metrics)   {}
func (in *streamInst) peakRSS() float64 { return selfPeakRSS() }
func (in *streamInst) close()           { in.rt.Close() }

// streamProbe measures the stream layer through internal/stream's exported
// Core, one call at a time: an append that only accretes, an append into a
// full window, the share of the second that is downdating, a solve, and
// the scalars a windowed stream keeps resident.
func streamProbe(m metrics, sh streamShape, budget time.Duration) {
	pool := sched.NewRuntime(workers)
	defer pool.Close()
	cfg := stream.Config{NB: sh.nb, IB: sh.ib, Kernels: core.TT, Env: engine.Env{Runtime: pool}}
	// Distinct batches, more than a window holds: a window of repeated rows
	// would be a different (and worse conditioned) downdating problem.
	var batches, rhss []*tile.Dense[float64]
	for i := 0; i < streamPool; i++ {
		batches = append(batches, tile.RandDense[float64](sh.batch, sh.n, int64(100+2*i)))
		rhss = append(rhss, tile.RandDense[float64](sh.batch, 1, int64(101+2*i)))
	}
	appendTo := func(c *stream.Core[float64]) func() {
		i := 0
		return func() {
			batch, rhs := batches[i%streamPool], rhss[i%streamPool]
			i++
			if err := c.Append(context.Background(), sh.batch, batch.Data, batch.Stride, rhs.Data, rhs.Stride, 1); err != nil {
				panic(err) // a healthy stream and a finite batch: only a bug fails here
			}
		}
	}
	accrete, err := stream.NewCore[float64](sh.n, cfg)
	if err != nil {
		panic(err)
	}
	grow := appendTo(accrete)
	grow() // the first append allocates Qᵀb
	plain, plainN := timeReps(budget/3, grow)
	m.layer("stream.append_ms", plain, plainN)

	cfg.Window = sh.batch * sh.windowBatches
	win, err := stream.NewCore[float64](sh.n, cfg)
	if err != nil {
		panic(err)
	}
	slide := appendTo(win)
	for i := 0; i <= sh.windowBatches; i++ {
		slide()
	}
	full, fullN := timeReps(budget/3, slide)
	m.layer("stream.window_append_ms", full, fullN)
	m.layer("stream.downdate_frac", ratio(full-plain, full), fullN)
	x := make([]float64, sh.n)
	solve, solveN := timeReps(budget/10, func() {
		if err := win.SolveLS(x, 1); err != nil {
			panic(err)
		}
	})
	m.layer("stream.solve_us", solve*1e3, solveN)
	m.layer("stream.footprint_kb", float64(win.Footprint())*8/1024, 0)
}
