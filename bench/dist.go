package main

import (
	"context"
	"fmt"
	"time"

	"tiledqr/internal/dist"
	"tiledqr/internal/model"
	"tiledqr/internal/tile"
)

// distShape sizes one distributed round: the global matrix, the tile sizes
// inside each shard, and the number of worker processes' worth of shards.
type distShape struct {
	m, n, nb, ib, shards int
}

// distInst solves one whole least-squares problem per operation on the
// distributed tier: a coordinator, its workers (in-process, over TCP
// loopback, one scheduler thread each), shard shipment, local factors, the
// TTQRT reduction tree, and the answer back.
type distInst struct {
	sh    distShape
	a, b  *tile.Dense[float64]
	last  *dist.Result[float64]
	stats dist.RunStats // summed over every operation
	ops   int
}

func newDistInst(sh distShape, seed int64) *distInst {
	return &distInst{sh: sh,
		a: tile.RandDense[float64](sh.m, sh.n, seed*1000),
		b: tile.RandDense[float64](sh.m, 1, seed*1000+1)}
}

func (in *distInst) warmOps() int { return 3 }

func (in *distInst) op(_ int, sp *span) (sample, error) {
	out := sample{rows: in.sh.m, flops: model.Flops(in.sh.m, in.sh.n)}
	// Cancelling stops the workers of a run that failed before reaching them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := sp.child("dist.coordinator")
	coord, err := dist.NewCoordinator(dist.Config{Workers: in.sh.shards, NB: in.sh.nb, IB: in.sh.ib, Rounds: 1, LocalWorkers: 1})
	if err != nil {
		cs.finish()
		return out, err
	}
	defer coord.Close()
	exits := dist.SpawnLocal(ctx, coord.Addr(), in.sh.shards)
	cs.finish()
	rs := sp.child("dist.run")
	res, err := dist.Run(ctx, coord, in.a, in.b)
	rs.finish()
	if err != nil {
		cancel()
	}
	for i := 0; i < in.sh.shards; i++ {
		if werr := <-exits; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	if err != nil {
		return out, err
	}
	in.last = res
	in.ops++
	s := &in.stats
	s.BytesSent += res.Stats.BytesSent
	s.ComputeNS += res.Stats.ComputeNS
	s.CombineNS += res.Stats.CombineNS
	s.SendNS += res.Stats.SendNS
	s.RecvWaitNS += res.Stats.RecvWaitNS
	s.WallNS += res.Stats.WallNS
	s.OverlapFrac += res.Stats.OverlapFrac
	return out, nil
}

func (in *distInst) replay(int, *span) {}

// verify checks the global R against the whole matrix (‖RᵀR − AᵀA‖_F /
// ‖AᵀA‖_F: the reduction tree is one of many valid row orders) and x
// against the semi-normal equations.
func (in *distInst) verify() (float64, error) {
	res := in.last
	if res == nil {
		return 0, fmt.Errorf("no operation completed")
	}
	if res.R == nil || res.R.Rows != in.sh.n || res.R.Cols != in.sh.n {
		return 0, fmt.Errorf("R missing or not %d×%d", in.sh.n, in.sh.n)
	}
	dx, err := relDiff(res.X, solveFromR(in.a, res.R, in.b))
	if err != nil {
		return 0, err
	}
	return max(gramResidual(in.a, res.R), dx) / eps, nil
}

// layers splits the workers' wall clock by what their own counters say
// they were doing. The shares are of summed worker time (shards × the
// slowest worker's wall), over every operation since set-up.
func (in *distInst) layers(m metrics) {
	s := in.stats
	wall := float64(in.sh.shards) * float64(s.WallNS)
	m.layer("dist.bytes_per_op", ratio(float64(s.BytesSent), float64(in.ops)), 0)
	m.layer("dist.compute_frac", ratio(float64(s.ComputeNS), wall), in.ops)
	m.layer("dist.combine_frac", ratio(float64(s.CombineNS), wall), in.ops)
	m.layer("dist.comm_frac", ratio(float64(s.SendNS+s.RecvWaitNS), wall), in.ops)
	m.layer("dist.overlap_frac", ratio(s.OverlapFrac, float64(in.ops)), in.ops)
}

func (in *distInst) peakRSS() float64 { return selfPeakRSS() }
func (in *distInst) close()           {}

// distProbe measures the wire codec of the reduction tree: packing an n×n
// triangle into a frame payload and unpacking it again, in bytes moved.
func distProbe(m metrics, n int, budget time.Duration) {
	r := tile.RandDense[float64](n, n, 9)
	buf := make([]byte, dist.TriLen(n)*8)
	const inner = 64
	ms, reps := timeReps(budget, func() {
		for i := 0; i < inner; i++ {
			dist.PackTriangle(buf, r.Data, r.Stride, n)
			if err := dist.UnpackTriangle(r.Data, r.Stride, n, buf); err != nil {
				panic(err)
			}
		}
	})
	m.layer("dist.pack_gbs", 2*inner*float64(len(buf))/(ms*1e6), reps)
}
