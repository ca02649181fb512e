package tiledqr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/fault"
)

// The chaos suite proves the runtime's failure-containment properties: an
// injected fault (error, panic, stall, NaN poison) in one job's kernels
// fails that job with a descriptive error while every concurrent job on
// the same shared runtime completes bit-identical to per-call execution,
// and no goroutines leak. The fault injector is process-global, so these
// tests never run in parallel with each other (no t.Parallel) and always
// disarm it before returning.

// checkNoGoroutineLeak fails the test if the goroutine count has not
// returned to the baseline within a grace period — the hand-rolled leak
// detector (counters are asynchronous; workers take a moment to exit).
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bystander is one concurrent job of a non-victim precision plus the
// result it must reproduce bit-identically while faults rain on the
// victim.
type bystander struct {
	name string
	run  func(rt *Runtime) error
}

// makeBystanders precomputes per-call reference results (before the
// injector is armed!) for a float32, complex64 and complex128 job, and
// returns closures that re-run each on the shared runtime and compare
// bit-for-bit.
func makeBystanders(t *testing.T, check bool) []bystander {
	t.Helper()
	opt := func(rt *Runtime) Options {
		return Options{TileSize: 8, InnerBlock: 4, Runtime: rt, CheckHealth: check}
	}
	ref := func() Options { return Options{TileSize: 8, InnerBlock: 4, Workers: 2, CheckHealth: check} }

	a32 := RandomMat[float32](40, 24, 7)
	f32, err := FactorOf(nil, a32, ref())
	if err != nil {
		t.Fatal(err)
	}
	want32 := f32.R().Data

	ac := RandomMat[complex64](40, 24, 8)
	fc, err := FactorOf(nil, ac, ref())
	if err != nil {
		t.Fatal(err)
	}
	wantC := fc.R().Data

	az := RandomMat[complex128](40, 24, 9)
	fz, err := FactorComplex(az, ref())
	if err != nil {
		t.Fatal(err)
	}
	wantZ := fz.R().Data

	return []bystander{
		{"float32", func(rt *Runtime) error {
			f, err := FactorOf(nil, a32, opt(rt))
			if err != nil {
				return err
			}
			if !equalData(f.R().Data, want32) {
				return errors.New("float32 bystander R differs from per-call R")
			}
			return nil
		}},
		{"complex64", func(rt *Runtime) error {
			f, err := FactorOf(nil, ac, opt(rt))
			if err != nil {
				return err
			}
			if !equalData(f.R().Data, wantC) {
				return errors.New("complex64 bystander R differs from per-call R")
			}
			return nil
		}},
		{"complex128", func(rt *Runtime) error {
			f, err := FactorComplex(az, opt(rt))
			if err != nil {
				return err
			}
			if !equalData(f.R().Data, wantZ) {
				return errors.New("complex128 bystander R differs from per-call R")
			}
			return nil
		}},
	}
}

// TestChaosFaultIsolation: for each fault mode, a float64 victim job on a
// shared runtime suffers exactly one injected fault and fails with a
// descriptive error, while concurrent jobs in the other three precisions
// (which the precision filter never matches) complete bit-identical to
// per-call execution — run under -race this is the containment proof.
func TestChaosFaultIsolation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     fault.Config
		check   bool // victim runs with CheckHealth
		wantSub string
	}{
		{"error", fault.Config{Mode: fault.ModeError, Kind: fault.AnyKind, Prec: "d", Index: 0}, false, "fault injection"},
		{"panic", fault.Config{Mode: fault.ModePanic, Kind: fault.AnyKind, Prec: "d", Index: 0}, false, "panicked"},
		{"nan-poison", fault.Config{Mode: fault.ModeNaN, Kind: core.KGEQRT, Prec: "d", Index: 0}, true, "numerical breakdown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			bys := makeBystanders(t, tc.check)
			a := RandomDense(64, 48, 1)

			rt := NewRuntime(4)
			fault.Set(tc.cfg)
			defer fault.Reset()

			var wg sync.WaitGroup
			errs := make(chan error, 2*len(bys))
			for _, b := range bys {
				wg.Add(1)
				go func(b bystander) {
					defer wg.Done()
					for rep := 0; rep < 2; rep++ {
						if err := b.run(rt); err != nil {
							errs <- fmt.Errorf("%s: %w", b.name, err)
							return
						}
					}
				}(b)
			}
			_, verr := Factor(a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt, CheckHealth: tc.check})
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if verr == nil {
				t.Fatalf("victim factorization survived a %s injection", tc.name)
			}
			if !strings.Contains(verr.Error(), tc.wantSub) {
				t.Errorf("victim error %q does not mention %q", verr, tc.wantSub)
			}
			if n := fault.Injected(); n != 1 {
				t.Errorf("injected %d fault(s), want exactly 1", n)
			}
			fault.Reset()

			// The victim's failure must not have poisoned the runtime: a
			// fresh float64 job on the same pool still works.
			f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt})
			if err != nil {
				t.Fatalf("runtime unusable after injected %s: %v", tc.name, err)
			}
			if !equalData(f.R().Data, refR(a, Options{TileSize: 8, InnerBlock: 4}).Data) {
				t.Error("post-fault R differs from per-call R")
			}
			rt.Close()
			checkNoGoroutineLeak(t, before)
		})
	}
}

// TestChaosStallDeadline: slow-tenant simulation — every float64 kernel
// stalls, the caller bounds the factorization with a deadline, and the
// call returns context.DeadlineExceeded promptly instead of serving a
// stalled job forever.
func TestChaosStallDeadline(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Close()
	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1,
		Stall: 10 * time.Millisecond})
	defer fault.Reset()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	a := RandomDense(64, 48, 2)
	start := time.Now()
	_, err := FactorOf(ctx, a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// In-flight tasks finish (one stall each) and the submitter unblocks:
	// nowhere near draining the whole stalled DAG.
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("deadline-bounded factorization took %v", el)
	}
}

// TestCancelPromptness: cancelling a large in-flight factorization
// returns ctx.Err() within 100ms of the cancel (in-flight kernel tasks
// are microseconds), and a concurrent job sharing the runtime still
// completes bit-identical.
func TestCancelPromptness(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()

	az := RandomMat[complex128](40, 24, 3)
	refOpt := Options{TileSize: 8, InnerBlock: 4, Workers: 2}
	fref, err := FactorComplex(az, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	wantZ := fref.R().Data

	// Large enough that the run is mid-flight when the cancel lands.
	a := RandomDense(512, 384, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelAt time.Time
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancelAt = time.Now()
		cancel()
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	var zerr error
	var zr *ZDense
	go func() {
		defer wg.Done()
		f, err := FactorComplex(az, Options{TileSize: 8, InnerBlock: 4, Runtime: rt})
		if err != nil {
			zerr = err
			return
		}
		zr = f.R()
	}()
	_, err = FactorOf(ctx, a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt})
	returned := time.Now()
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (machine too fast? grow the matrix)", err)
	}
	if dt, limit := returned.Sub(cancelAt), 100*time.Millisecond*raceFactor; dt > limit {
		t.Errorf("FactorOf returned %v after cancel, want ≤ %v", dt, limit)
	}
	if zerr != nil {
		t.Errorf("concurrent job failed during cancellation: %v", zerr)
	} else if !equalData(zr.Data, wantZ) {
		t.Error("concurrent job R differs from per-call R during cancellation")
	}

	// A context dead before the call: ctx.Err() without a single task run.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := FactorOf(dead, a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestCancelLeavesFactorizationSticky: a cancelled FactorIntoOf leaves
// the factorization invalid with the cancellation as its sticky error,
// and a later Refactor rebuilds and clears it.
func TestCancelLeavesFactorizationSticky(t *testing.T) {
	a := RandomDense(64, 48, 5)
	f := &Factorization{}
	// Stalled kernels make the deadline land mid-run deterministically.
	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1,
		Stall: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	err := FactorIntoOf(ctx, f, a, Options{TileSize: 8, InnerBlock: 4})
	fault.Reset()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FactorIntoOf = %v, want context.DeadlineExceeded", err)
	}
	if ferr := f.Err(); !errors.Is(ferr, context.DeadlineExceeded) {
		t.Errorf("Err() = %v, want the sticky context.DeadlineExceeded", ferr)
	}
	if _, err := f.SolveLS(RandomDense(64, 1, 6)); err == nil {
		t.Error("SolveLS served a cancelled factorization")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SolveLS error %v does not wrap the cancellation cause", err)
	}
	// Recovery: a successful Refactor clears the sticky state.
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); err != nil {
		t.Errorf("Err() = %v after successful Refactor, want nil", err)
	}
	if !equalData(f.R().Data, refR(a, Options{TileSize: 8, InnerBlock: 4}).Data) {
		t.Error("recovered R differs from per-call R")
	}
}

// TestRuntimeLifecycle: submit on a closed runtime errors with
// ErrRuntimeClosed (never hangs), double Close is safe, Drain rejects
// new work with ErrRuntimeDraining, and an expired Drain deadline
// returns ctx.Err() while the in-flight job keeps running to completion.
func TestRuntimeLifecycle(t *testing.T) {
	a := RandomDense(40, 24, 1)
	opt := func(rt *Runtime) Options { return Options{TileSize: 8, InnerBlock: 4, Runtime: rt} }

	t.Run("closed-submit", func(t *testing.T) {
		rt := NewRuntime(2)
		rt.Close()
		rt.Close() // double Close: defined, idempotent
		done := make(chan error, 1)
		go func() {
			_, err := Factor(a, opt(rt))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrRuntimeClosed) {
				t.Errorf("err = %v, want ErrRuntimeClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("submit on a closed runtime hung")
		}
	})

	t.Run("drain-idle", func(t *testing.T) {
		rt := NewRuntime(2)
		defer rt.Close()
		if err := rt.Drain(context.Background()); err != nil {
			t.Fatalf("Drain on an idle runtime: %v", err)
		}
		if _, err := Factor(a, opt(rt)); !errors.Is(err, ErrRuntimeDraining) {
			t.Errorf("submit after Drain: err = %v, want ErrRuntimeDraining", err)
		}
	})

	t.Run("drain-deadline", func(t *testing.T) {
		rt := NewRuntime(2)
		fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1,
			Stall: 5 * time.Millisecond})
		defer fault.Reset()
		started := make(chan struct{})
		finished := make(chan error, 1)
		go func() {
			close(started)
			_, err := Factor(RandomDense(64, 48, 2), opt(rt))
			finished <- err
		}()
		<-started
		time.Sleep(10 * time.Millisecond) // let the job get in flight
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := rt.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Drain = %v, want context.DeadlineExceeded", err)
		}
		// The stalled job was not killed by the expired Drain: it finishes,
		// and an unbounded Drain then reports idle.
		fault.Reset()
		if err := <-finished; err != nil {
			t.Errorf("in-flight job failed after expired Drain: %v", err)
		}
		if err := rt.Drain(context.Background()); err != nil {
			t.Errorf("second Drain after the job finished: %v", err)
		}
		rt.Close()
	})
}

// streamProbe drives one precision's stream wrapper through the sticky-
// error contract without the test quadruplicating itself.
type streamProbe struct {
	prec       string // fault-injector precision filter
	appendGood func() error
	err        func() error
	accessors  func() map[string]error // op name → returned error
}

// TestStickyStreamErrors: after an append fails mid-merge, the stream is
// poisoned — Err, R, QTB, SolveLS, ResidualNorm and further appends all
// return (never panic with) the original cause, in all four precisions.
func TestStickyStreamErrors(t *testing.T) {
	opt := Options{TileSize: 8, InnerBlock: 4, Workers: 1}
	n := 24

	probes := map[string]streamProbe{}

	{
		s, err := NewStreamOf[float64](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		probes["float64"] = streamProbe{
			prec:       "d",
			appendGood: func() error { return s.AppendRHS(RandomDense(16, n, 1), RandomDense(16, 1, 2)) },
			err:        s.Err,
			accessors: func() map[string]error {
				m := map[string]error{}
				_, m["R"] = s.R()
				_, m["QTB"] = s.QTB()
				_, m["SolveLS"] = s.SolveLS()
				_, m["ResidualNorm"] = s.ResidualNorm()
				m["AppendRows"] = s.AppendRows(RandomDense(16, n, 3))
				return m
			},
		}
	}
	{
		s, err := NewStreamOf[float32](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		probes["float32"] = streamProbe{
			prec:       "s",
			appendGood: func() error { return s.AppendRHS(RandomMat[float32](16, n, 1), RandomMat[float32](16, 1, 2)) },
			err:        s.Err,
			accessors: func() map[string]error {
				m := map[string]error{}
				_, m["R"] = s.R()
				_, m["QTB"] = s.QTB()
				_, m["SolveLS"] = s.SolveLS()
				_, m["ResidualNorm"] = s.ResidualNorm()
				m["AppendRows"] = s.AppendRows(RandomMat[float32](16, n, 3))
				return m
			},
		}
	}
	{
		s, err := NewStreamOf[complex64](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		probes["complex64"] = streamProbe{
			prec:       "c",
			appendGood: func() error { return s.AppendRHS(RandomMat[complex64](16, n, 1), RandomMat[complex64](16, 1, 2)) },
			err:        s.Err,
			accessors: func() map[string]error {
				m := map[string]error{}
				_, m["R"] = s.R()
				_, m["QTB"] = s.QTB()
				_, m["SolveLS"] = s.SolveLS()
				_, m["ResidualNorm"] = s.ResidualNorm()
				m["AppendRows"] = s.AppendRows(RandomMat[complex64](16, n, 3))
				return m
			},
		}
	}
	{
		s, err := NewStreamOf[complex128](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		probes["complex128"] = streamProbe{
			prec:       "z",
			appendGood: func() error { return s.AppendRHS(RandomMat[complex128](16, n, 1), RandomMat[complex128](16, 1, 2)) },
			err:        s.Err,
			accessors: func() map[string]error {
				m := map[string]error{}
				_, m["R"] = s.R()
				_, m["QTB"] = s.QTB()
				_, m["SolveLS"] = s.SolveLS()
				_, m["ResidualNorm"] = s.ResidualNorm()
				m["AppendRows"] = s.AppendRows(RandomMat[complex128](16, n, 3))
				return m
			},
		}
	}

	for name, p := range probes {
		t.Run(name, func(t *testing.T) {
			if err := p.appendGood(); err != nil {
				t.Fatal(err)
			}
			fault.Set(fault.Config{Mode: fault.ModeError, Kind: fault.AnyKind, Prec: p.prec, Index: 0})
			appendErr := p.appendGood()
			fault.Reset()
			if appendErr == nil {
				t.Fatal("append survived an injected kernel error")
			}
			if !strings.Contains(appendErr.Error(), "fault injection") {
				t.Fatalf("append error %q does not carry the original cause", appendErr)
			}
			if serr := p.err(); serr == nil {
				t.Error("Err() = nil after a failed append")
			} else if serr.Error() != appendErr.Error() {
				t.Errorf("Err() = %q, want the append's error %q", serr, appendErr)
			}
			for op, err := range p.accessors() {
				if err == nil {
					t.Errorf("%s served results from a poisoned stream", op)
					continue
				}
				if !strings.Contains(err.Error(), "fault injection") {
					t.Errorf("%s error %q lost the original cause", op, err)
				}
				if !strings.Contains(err.Error(), "further appends are unsupported") {
					t.Errorf("%s error %q does not state the appends-unsupported contract", op, err)
				}
			}
		})
	}
}

// TestStreamCancelPoisons: a context cancellation that lands mid-merge
// poisons the stream with the cancellation as its cause.
func TestStreamCancelPoisons(t *testing.T) {
	s, err := NewStreamOf[float64](48, Options{TileSize: 8, InnerBlock: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stall every float64 kernel so the deadline reliably lands inside the
	// merge DAG rather than before or after it.
	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1,
		Stall: 5 * time.Millisecond})
	defer fault.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	aerr := s.AppendRowsCtx(ctx, RandomDense(512, 48, 1))
	fault.Reset()
	if !errors.Is(aerr, context.DeadlineExceeded) {
		t.Fatalf("AppendRowsCtx = %v, want context.DeadlineExceeded", aerr)
	}
	if serr := s.Err(); !errors.Is(serr, context.DeadlineExceeded) {
		t.Errorf("Err() = %v, want the sticky cancellation", serr)
	}
	if _, err := s.R(); err == nil {
		t.Error("R served a cancelled stream")
	}
}
