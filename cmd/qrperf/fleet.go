package main

import (
	"fmt"
	"time"

	"tiledqr"
)

// fleetReport records the sliding-window fleet benchmark: many small
// windowed streams ingesting concurrently — the online-serving shape of the
// streaming subsystem, where every append also evicts to hold the window
// (free in itself: the window is a reduction tree and eviction drops
// leaves; the re-merge is paid by reads). Tracked in BENCH_kernels.json alongside the plain
// stream series so window-maintenance regressions gate CI like kernel ones.
type fleetReport struct {
	Streams            int     `json:"streams"`
	N                  int     `json:"n"`
	Batch              int     `json:"batch_rows"`
	Window             int     `json:"window_rows"`
	Forget             float64 `json:"forget"`
	RowsPerSec         float64 `json:"rows_per_sec"`
	FootprintPerStream int     `json:"footprint_per_stream"`
}

// measureFleet times steady-state ingestion across a fleet of windowed,
// forgetful float64 streams. Each stream is pre-filled past its window so
// every timed append runs the full maintenance path: decay, merge, and the
// eviction of the oldest batch.
func measureFleet(quick bool) *fleetReport {
	const n, batch, window = 32, 16, 64
	streams := 64
	if quick {
		streams = 8
	}
	rep := &fleetReport{Streams: streams, N: n, Batch: batch, Window: window, Forget: 0.995}
	opt := tiledqr.Options{TileSize: 32, InnerBlock: 8, WindowRows: window, Forget: rep.Forget}
	fleet := make([]*tiledqr.Stream[float64], streams)
	data := make([]*tiledqr.Dense, streams)
	for i := range fleet {
		s, err := tiledqr.NewStreamOf[float64](n, opt)
		if err != nil {
			die(err)
		}
		fleet[i] = s
		data[i] = tiledqr.RandomDense(batch, n, int64(i+1))
		for b := 0; b <= window/batch; b++ { // past the window: appends now evict
			if err := s.AppendRows(data[i]); err != nil {
				die(err)
			}
		}
	}
	sec := timeIt(func() {
		for i, s := range fleet {
			if err := s.AppendRows(data[i]); err != nil {
				die(err)
			}
		}
	})
	rep.RowsPerSec = float64(streams) * float64(batch) / sec
	rep.FootprintPerStream = fleet[0].Footprint()
	return rep
}

// printFleet renders the report for the interactive -fleet mode.
func printFleet(rep *fleetReport, elapsed time.Duration) {
	fmt.Printf("windowed-stream fleet: %d streams × %d cols, batch %d, window %d, forget λ=%g\n",
		rep.Streams, rep.N, rep.Batch, rep.Window, rep.Forget)
	fmt.Printf("steady-state ingestion: %.0f rows/sec across the fleet (%.1f rows/sec/stream)\n",
		rep.RowsPerSec, rep.RowsPerSec/float64(rep.Streams))
	fmt.Printf("footprint: %d float64 per stream (O(n² + window); measured in %.1fs)\n",
		rep.FootprintPerStream, elapsed.Seconds())
}
