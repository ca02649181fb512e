package tiledqr

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// refR computes the reference R inline on the calling goroutine
// (Workers == 1: task-ID order, no deques, no stealing) — the baseline a
// runtime must reproduce bit-identically (same DAG, same dataflow, so
// every float is determined regardless of schedule), computed by no
// scheduler code it could share a fault with.
func refR(a *Dense, opt Options) *Dense {
	opt.Runtime = nil
	opt.Workers = 1
	f, err := Factor(a, opt)
	if err != nil {
		panic(err)
	}
	return f.R()
}

// TestSharedRuntimeConcurrentStress factors many different matrices in
// mixed precisions and both kernel families concurrently on one shared
// runtime, asserting each result is bit-identical to inline execution.
// Run under -race this is the end-to-end check of the multi-DAG runtime.
func TestSharedRuntimeConcurrentStress(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()
	kernels := []Kernels{TT, TS}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kern := kernels[g%2]
			opt := Options{Algorithm: Greedy, Kernels: kern, TileSize: 8, InnerBlock: 4, Runtime: rt}
			m, n := 40+g, 24+(g%3)*8
			for rep := 0; rep < 3; rep++ {
				seed := int64(g*10 + rep)
				switch g % 4 {
				case 0: // float64 + least squares
					a := RandomDense(m, n, seed)
					f, err := Factor(a, opt)
					if err != nil {
						errs <- err
						return
					}
					want := refR(a, opt)
					if !equalData(f.R().Data, want.Data) {
						errs <- fmt.Errorf("g%d rep%d: shared-runtime R differs from inline R", g, rep)
						return
					}
					b := RandomDense(m, 2, seed+1)
					if _, err := f.SolveLS(b); err != nil {
						errs <- err
						return
					}
				case 1: // complex128
					a := RandomMat[complex128](m, n, seed)
					f, err := FactorComplex(a, opt)
					if err != nil {
						errs <- err
						return
					}
					optRef := opt
					optRef.Runtime, optRef.Workers = nil, 2
					fr, err := FactorComplex(a, optRef)
					if err != nil {
						errs <- err
						return
					}
					if !equalData(f.R().Data, fr.R().Data) {
						errs <- fmt.Errorf("g%d rep%d: complex128 shared R differs", g, rep)
						return
					}
				case 2: // float32
					a := RandomMat[float32](m, n, seed)
					f, err := FactorOf(nil, a, opt)
					if err != nil {
						errs <- err
						return
					}
					optRef := opt
					optRef.Runtime, optRef.Workers = nil, 2
					fr, err := FactorOf(nil, a, optRef)
					if err != nil {
						errs <- err
						return
					}
					if !equalData(f.R().Data, fr.R().Data) {
						errs <- fmt.Errorf("g%d rep%d: float32 shared R differs", g, rep)
						return
					}
				case 3: // complex64 via the streaming path on the shared runtime
					a := RandomMat[complex64](m, n, seed)
					s, err := NewStreamOf[complex64](n, Options{TileSize: 8, InnerBlock: 4, Runtime: rt})
					if err != nil {
						errs <- err
						return
					}
					if err := s.AppendRows(a); err != nil {
						errs <- err
						return
					}
					sr, err := NewStreamOf[complex64](n, Options{TileSize: 8, InnerBlock: 4, Workers: 2})
					if err != nil {
						errs <- err
						return
					}
					if err := sr.AppendRows(a); err != nil {
						errs <- err
						return
					}
					sR, err := s.R()
					if err != nil {
						errs <- err
						return
					}
					srR, err := sr.R()
					if err != nil {
						errs <- err
						return
					}
					if !equalData(sR.Data, srR.Data) {
						errs <- fmt.Errorf("g%d rep%d: complex64 stream shared R differs", g, rep)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func equalData[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRuntimeCloseNoGoroutineLeak: every worker started by a Runtime must
// be gone after Close.
func TestRuntimeCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		rt := NewRuntime(4)
		a := RandomDense(40, 24, int64(i))
		if _, err := Factor(a, Options{TileSize: 8, InnerBlock: 4, Runtime: rt}); err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}
	// The counters are asynchronous; give exiting goroutines a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRefactorAllocsO1: the steady-state Refactor serving path must do a
// constant handful of allocations — none proportional to the tile grid or
// task count. (A fresh Factor of this shape allocates the tile matrix, T
// factors, DAG, plan, and workspaces: dozens of allocations.)
func TestRefactorAllocsO1(t *testing.T) {
	a1 := RandomDense(64, 48, 1)
	a2 := RandomDense(64, 48, 2)
	f := &Factorization{}
	opt := Options{TileSize: 8, InnerBlock: 4}
	if err := FactorInto(f, a1, opt); err != nil {
		t.Fatal(err)
	}
	// Warm up: grow worker workspaces, deque capacity, spare lists.
	for i := 0; i < 3; i++ {
		if err := f.Refactor(a2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.Refactor(a2); err != nil {
			t.Fatal(err)
		}
	})
	// O(1): the job bookkeeping (job struct, done channel, trace, exec
	// closure) — with 48 tiles in the grid, per-tile allocation would blow
	// far past this bound.
	if allocs > 16 {
		t.Errorf("Refactor did %.1f allocs/run, want O(1) ≤ 16", allocs)
	}
	if !equalData(f.R().Data, refR(a2, opt).Data) {
		t.Error("steady-state Refactor R differs from inline R")
	}
	// The same bound holds with a solve riding on every refactorization: its
	// scratch comes from the package-level pools, so only the returned
	// solution is allocated.
	b := RandomDense(64, 1, 3)
	solve := func() {
		if err := f.Refactor(a2); err != nil {
			t.Fatal(err)
		}
		if _, err := f.SolveLS(b); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(10, solve); allocs > 16 {
		t.Errorf("Refactor+SolveLS did %.1f allocs/run, want O(1) ≤ 16", allocs)
	}
}

// TestColdFactorizationsAreCollectable: a dropped factorization must be
// garbage at the next collection, so nothing inside it may register with a
// process-global list. A sync.Pool field would: the runtime's pool registry
// holds a pool from its first Put until two GC cycles later — here with the
// whole factorization, tile arena included — and a loop of cold
// Factor+SolveLS then grows the live heap without bound.
func TestColdFactorizationsAreCollectable(t *testing.T) {
	if testing.Short() {
		t.Skip("100 cold 2560×256 factorizations skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("heap accounting skipped under the race detector")
	}
	const m, n, nb, ib = 2560, 256, 64, 16
	rt := NewRuntime(2)
	defer rt.Close()
	a := RandomDense(m, n, 1)
	b := RandomDense(m, 1, 2)
	opt := Options{TileSize: nb, InnerBlock: ib, Runtime: rt}
	var ms runtime.MemStats
	for i := 0; i < 100; i++ {
		f, err := Factor(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.SolveLS(b); err != nil {
			t.Fatal(err)
		}
	}
	// One collection, not several: a pool registry pin expires after two
	// cycles, so repeated GCs would hide it.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	// The input plus one arena (tiles and T factors, ~1.5× the input).
	unit := uint64(m*n*8) * 5 / 2
	t.Logf("HeapAlloc after 100 cold Factor+SolveLS and one GC: %.1f MB (input+arena %.1f MB)",
		float64(ms.HeapAlloc)/1e6, float64(unit)/1e6)
	if ms.HeapAlloc > 2*unit {
		t.Errorf("HeapAlloc %.1f MB after a GC, want ≤ %.1f MB: dropped factorizations are still reachable",
			float64(ms.HeapAlloc)/1e6, float64(2*unit)/1e6)
	}
}

// TestFactorIntoRebuildsOnNewShape: FactorInto must transparently rebuild
// for a new shape or options and keep producing correct factors.
func TestFactorIntoRebuildsOnNewShape(t *testing.T) {
	f := &Factorization{}
	shapes := [][2]int{{40, 24}, {24, 24}, {56, 8}, {40, 24}}
	for i, sh := range shapes {
		a := RandomDense(sh[0], sh[1], int64(i))
		if err := FactorInto(f, a, Options{TileSize: 8, InnerBlock: 4}); err != nil {
			t.Fatal(err)
		}
		want := refR(a, Options{TileSize: 8, InnerBlock: 4})
		if !equalData(f.R().Data, want.Data) {
			t.Errorf("shape %v: FactorInto R differs from inline R", sh)
		}
	}
	// Changing a structural option must also rebuild.
	a := RandomDense(40, 24, 9)
	if err := FactorInto(f, a, Options{TileSize: 8, InnerBlock: 4, Kernels: TS}); err != nil {
		t.Fatal(err)
	}
	want := refR(a, Options{TileSize: 8, InnerBlock: 4, Kernels: TS})
	if !equalData(f.R().Data, want.Data) {
		t.Error("TS rebuild: FactorInto R differs from inline R")
	}
}

// TestRefactorEmptyFactorization: Refactor on a never-factored value must
// return an error, not panic, in every precision.
func TestRefactorEmptyFactorization(t *testing.T) {
	if err := (&Factorization{}).Refactor(RandomDense(8, 4, 1)); err == nil {
		t.Error("float64: no error")
	}
	if err := (&QR[float32]{}).Refactor(RandomMat[float32](8, 4, 1)); err == nil {
		t.Error("float32: no error")
	}
	if err := (&QR[complex64]{}).Refactor(RandomMat[complex64](8, 4, 1)); err == nil {
		t.Error("complex64: no error")
	}
	if err := (&ZFactorization{}).Refactor(RandomMat[complex128](8, 4, 1)); err == nil {
		t.Error("complex128: no error")
	}
}

// TestRefactorKeepsTrace: Refactor runs with the same options as the
// original factorization, including Trace.
func TestRefactorKeepsTrace(t *testing.T) {
	f := &Factorization{}
	if err := FactorInto(f, RandomDense(40, 24, 1), Options{TileSize: 8, InnerBlock: 4, Trace: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(RandomDense(40, 24, 2)); err != nil {
		t.Fatal(err)
	}
	tr := f.Trace()
	if tr == nil || len(tr.Spans) != f.TaskCount() {
		t.Errorf("trace lost across Refactor (spans = %v)", tr)
	}
}

// TestNegativeWorkersUsesSharedRuntime: Workers < 0 must behave like the
// default: it runs on the default runtime.
func TestNegativeWorkersUsesSharedRuntime(t *testing.T) {
	a := RandomDense(40, 24, 5)
	f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !equalData(f.R().Data, refR(a, Options{TileSize: 8, InnerBlock: 4}).Data) {
		t.Error("Workers: -1 R differs from default execution")
	}
}

// TestDefaultRuntimeShared: zero-valued options execute on the process
// runtime; DefaultRuntime is a stable handle sized to GOMAXPROCS.
func TestDefaultRuntimeShared(t *testing.T) {
	if DefaultRuntime() != DefaultRuntime() {
		t.Error("DefaultRuntime not a singleton")
	}
	if got, want := DefaultRuntime().Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default runtime has %d workers, want GOMAXPROCS = %d", got, want)
	}
	a := RandomDense(40, 24, 4)
	f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !equalData(f.R().Data, refR(a, Options{TileSize: 8, InnerBlock: 4}).Data) {
		t.Error("default-runtime R differs from inline R")
	}
}
