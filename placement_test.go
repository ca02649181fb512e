package tiledqr

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"tiledqr/internal/core"
)

// TestPlacementAllocs counts, with no clock in the measurement, the bytes
// and mallocs one warm operation allocates on each placement: inline
// (Workers: 1), the resident runtime of width 2 that Workers: 2 selects,
// and a runtime of the caller's own. The stream appends, with and without
// a right-hand side, are warm scratch only: their staging, the merge plan
// and every worker's workspace are reused, so what is left is the job's
// bookkeeping. The cold Factor +
// SolveLS (small_fleet's shape) allocates its tile arena, DAG and plan on
// every call; the placement must add nothing to that. A per-call pool
// showed here as a fresh set of workers and workspaces on every
// operation: ~378 KB per append. The 2048×64 rows run on tile rows 4·nb
// tall below the diagonal (tile.FactorGrid): the warm FactorInto reuses
// everything, the cold Factor + SolveLS allocates the 1 MiB arena it
// factors in, and every worker's scratch covers the tall tiles from the
// first job on. Their task count is exact: the 18-tile-row DAG's.
func TestPlacementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	rt := NewRuntime(2)
	defer rt.Close()
	placements := map[string]Options{
		"Workers=1":     {Workers: 1},
		"Workers=2":     {Workers: 2},
		"NewRuntime(2)": {Runtime: rt},
	}
	// Each shape returns one operation, ready to run warm.
	shapes := map[string]func(t *testing.T, opt Options) func(){
		"append 256x256 nb=64": func(t *testing.T, opt Options) func() {
			opt.TileSize, opt.InnerBlock = 64, 16
			s, err := NewStreamOf[float64](256, opt)
			if err != nil {
				t.Fatal(err)
			}
			batch := RandomDense(256, 256, 5)
			return func() {
				if err := s.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
			}
		},
		"AppendRHS 256x256 nb=64": func(t *testing.T, opt Options) func() {
			opt.TileSize, opt.InnerBlock = 64, 16
			s, err := NewStreamOf[float64](256, opt)
			if err != nil {
				t.Fatal(err)
			}
			batch, rhs := RandomDense(256, 256, 5), RandomDense(256, 1, 6)
			return func() {
				if err := s.AppendRHS(batch, rhs); err != nil {
					t.Fatal(err)
				}
			}
		},
		"FactorInto 2048x64 nb=32": func(t *testing.T, opt Options) func() {
			opt.TileSize, opt.InnerBlock = 32, 8
			a, f := RandomDense(2048, 64, 7), new(QR[float64])
			op := func() {
				if err := FactorIntoOf(nil, f, a, opt); err != nil {
					t.Fatal(err)
				}
			}
			op()
			checkTallTasks(t, f)
			return op
		},
		"Factor+SolveLS 2048x64 nb=32": func(t *testing.T, opt Options) func() {
			opt.TileSize, opt.InnerBlock = 32, 8
			a, b := RandomDense(2048, 64, 7), RandomDense(2048, 1, 8)
			var f *QR[float64]
			op := func() {
				var err error
				if f, err = Factor(a, opt); err != nil {
					t.Fatal(err)
				}
				if _, err := f.SolveLS(b); err != nil {
					t.Fatal(err)
				}
			}
			op()
			checkTallTasks(t, f)
			return op
		},
		"Factor+SolveLS 256x128 nb=32": func(t *testing.T, opt Options) func() {
			opt.TileSize, opt.InnerBlock = 32, 8
			a, b := RandomDense(256, 128, 3), RandomDense(256, 1, 4)
			return func() {
				f, err := Factor(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.SolveLS(b); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for _, tc := range []struct {
		shape, placement     string
		maxBytes, maxMallocs uint64 // per warm operation
	}{
		{"append 256x256 nb=64", "Workers=1", 4 << 10, 8},
		{"append 256x256 nb=64", "Workers=2", 4 << 10, 8},
		{"append 256x256 nb=64", "NewRuntime(2)", 4 << 10, 8},
		{"AppendRHS 256x256 nb=64", "Workers=1", 4 << 10, 8},
		{"AppendRHS 256x256 nb=64", "Workers=2", 4 << 10, 8},
		{"AppendRHS 256x256 nb=64", "NewRuntime(2)", 4 << 10, 8},
		{"Factor+SolveLS 256x128 nb=32", "Workers=1", 420 << 10, 52},
		{"Factor+SolveLS 256x128 nb=32", "Workers=2", 420 << 10, 52},
		{"Factor+SolveLS 256x128 nb=32", "NewRuntime(2)", 420 << 10, 52},
		{"FactorInto 2048x64 nb=32", "Workers=1", 4 << 10, 8},
		{"FactorInto 2048x64 nb=32", "Workers=2", 4 << 10, 8},
		{"FactorInto 2048x64 nb=32", "NewRuntime(2)", 4 << 10, 8},
		{"Factor+SolveLS 2048x64 nb=32", "Workers=1", 1280 << 10, 56},
		{"Factor+SolveLS 2048x64 nb=32", "Workers=2", 1280 << 10, 56},
		{"Factor+SolveLS 2048x64 nb=32", "NewRuntime(2)", 1280 << 10, 56},
	} {
		op := shapes[tc.shape](t, placements[tc.placement])
		for i := 0; i < 3; i++ {
			op()
		}
		const ops = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / ops
		mallocs := (after.Mallocs - before.Mallocs) / ops
		t.Logf("%s on %s: %d B in %d mallocs per operation", tc.shape, tc.placement, bytes, mallocs)
		if bytes > tc.maxBytes || mallocs > tc.maxMallocs {
			t.Errorf("%s on %s: %d B in %d mallocs per warm operation, want ≤ %d B in ≤ %d",
				tc.shape, tc.placement, bytes, mallocs, tc.maxBytes, tc.maxMallocs)
		}
	}
}

// checkTallTasks holds a 2048×64 factorization at nb = 32 to the task
// count of the DAG on its 18 tile rows: the top two 32 tall, sixteen 128
// tall below them.
func checkTallTasks(t *testing.T, f *QR[float64]) {
	t.Helper()
	want := core.BuildDAG(core.GreedyList(18, 2), core.TT).NumTasks()
	if p, q, _ := f.Grid(); p != 18 || q != 2 || f.TaskCount() != want {
		t.Fatalf("2048×64 at nb=32: %d tasks on a %d×%d grid, want %d on 18×2", f.TaskCount(), p, q, want)
	}
}

// firstUseWidth is a worker width no other test of the package asks for;
// each run of TestSharedRuntimeFirstUse takes the next one, so that under
// -count=N every run makes a first use.
var firstUseWidth = 5

// TestSharedRuntimeFirstUse: goroutines that make the first call of one
// width at once start one resident runtime of that width between them —
// the goroutine count rises by exactly its workers, and stays there — and
// neither Close nor Drain of the default runtime stops it or makes it
// refuse work.
func TestSharedRuntimeFirstUse(t *testing.T) {
	w := firstUseWidth
	firstUseWidth++
	a := RandomDense(24, 16, 1)
	want := refR(a, Options{TileSize: 8, InnerBlock: 4})
	// Workers of runtimes that earlier tests closed may still be exiting:
	// count from a goroutine total that held for 20 ms.
	before := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); time.Now().Before(settle); {
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4, Workers: w})
			if err != nil {
				t.Error(err)
				return
			}
			if !equalData(f.R().Data, want.Data) {
				t.Errorf("Workers: %d R differs from inline R", w)
			}
		}()
	}
	wg.Wait()
	// The callers' goroutines exit after Done; wait for them to go.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+w && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != before+w {
		t.Errorf("16 first calls of Workers: %d took the goroutine count %d → %d, want a rise of exactly %d", w, before, got, w)
	}

	def := DefaultRuntime()
	def.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := def.Drain(ctx); err != nil {
		t.Fatalf("Drain of the default runtime: %v", err)
	}
	if st := def.Stats(); st.Closed || st.Draining {
		t.Errorf("default runtime after Close and Drain: %+v, want neither closed nor draining", st)
	}
	f, err := Factor(a, Options{TileSize: 8, InnerBlock: 4})
	if err != nil {
		t.Fatalf("Factor on the default runtime after its Close and Drain: %v", err)
	}
	if !equalData(f.R().Data, want.Data) {
		t.Error("default-runtime R differs from inline R")
	}
}
