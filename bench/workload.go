package main

import (
	"fmt"
	"sync"
	"time"

	"tiledqr/internal/model"
)

// shape is one factorization: precision "d" (float64) or "z" (complex128),
// matrix and tile sizes.
type shape struct {
	prec         string
	m, n, nb, ib int
}

func (s shape) flops() float64 {
	if s.prec == "z" {
		return model.ComplexFlops(s.m, s.n)
	}
	return model.Flops(s.m, s.n)
}

// instance is one set-up workload: inputs generated, runtime or server or
// listener started, warm-up done.
type instance interface {
	// op runs one operation for a caller and returns the rows and model
	// flops it handed the system (runLoop fills in the times). sp is nil
	// with tracing off; with tracing on it is the operation's root span and
	// op records a child span around every call it makes into a layer.
	op(caller int, sp *span) (sample, error)
	// replay runs after a traced operation, outside its timed span, and
	// repeats under sp the steps the operation hides inside one call, so
	// that each gets a span of its own.
	replay(caller int, sp *span)
	// warmOps is the number of untimed operations each caller runs before
	// a timed loop: max(3, what fills the workload's resident state).
	warmOps() int
	// verify checks the outputs of the last operation, outside any timed
	// window, and returns their error in multiples of eps.
	verify() (float64, error)
	// layers adds the layer metrics only this workload can measure.
	layers(m metrics)
	// peakRSS returns VmHWM, in MB, of the process that did the work.
	peakRSS() float64
	close()
}

// workload is one named set of inputs. Why it exists is recorded in
// BENCHMARK.json and the README.
type workload struct {
	name    string
	callers int     // closed loop: each caller waits for its answer before the next request
	ref     shape   // the factorization at the heart of one operation; the factor ledger runs on it
	ceiling float64 // accuracy, in eps, above which the outputs count as wrong
	setup   func(seed int64) (instance, error)
}

// loopResult is one closed-loop run of a workload.
type loopResult struct {
	samples   []sample
	window    time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (r *loopResult) p50() float64 { return median(latenciesMS(r.samples)) }

// runLoop drives the instance from w.callers goroutines for the given time.
// A caller starts its next operation as soon as the previous one returns
// and stops starting new ones at the deadline; the operation in flight then
// is completed and counted by the share of it inside the window.
func runLoop(w *workload, in instance, d time.Duration, tr *tracer) *loopResult {
	res := &loopResult{window: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			attempted, failed := 0, 0
			var firstErr error
			for {
				start := time.Since(t0)
				if start >= d {
					break
				}
				id := tr.newOp()
				sp := tr.root("op", id, c)
				out, err := in.op(c, sp)
				end := time.Since(t0)
				sp.finish()
				rp := tr.root("replay", id, c)
				in.replay(c, rp)
				rp.finish()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				out.start, out.end = start, end
				mine = append(mine, out)
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// warmLoop runs n untimed operations per caller.
func warmLoop(w *workload, in instance, n int, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer() // spans of warm-up operations are dropped
	}
	errs := make(chan error, w.callers)
	for c := 0; c < w.callers; c++ {
		go func(c int) {
			for i := 0; i < n; i++ {
				sp := tr.root("warm", -1, c)
				if _, err := in.op(c, sp); err != nil {
					errs <- fmt.Errorf("warm-up: %w", err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < w.callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
