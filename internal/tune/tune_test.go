package tune

import (
	"maps"
	"math"
	"os"
	"slices"
	"sync"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// synthSecs is a plausible synthetic calibration point: throughput mildly
// increasing with nb, so larger tiles win on pure efficiency and the
// dispatch-overhead term is what pushes small shapes to small tiles.
func synthSecs(_, _ string, nb, _ int) map[core.Kind]float64 {
	secs := map[core.Kind]float64{}
	for k := core.Kind(0); k < 6; k++ {
		secs[k] = Gflops[float64](k.Weight(), nb, 2+float64(nb)/128)
	}
	return secs
}

// withHook installs a synthetic measurement function for the test and
// resets all in-process calibration state around it. Tests using it must
// not run in parallel (package-level state).
func withHook(t *testing.T, f func(family, prec string, nb, ib int) map[core.Kind]float64) {
	t.Helper()
	measureHook = f
	Reset()
	t.Cleanup(func() {
		measureHook = nil
		Reset()
	})
}

// point is one calibration point as the measurement hook sees it.
type point struct {
	family, prec string
	nb, ib       int
}

// countPoints installs synthSecs behind a hook that counts the points it
// measures, and returns a reader of the counts.
func countPoints(t *testing.T) func() map[point]int {
	var mu sync.Mutex
	seen := map[point]int{}
	withHook(t, func(family, prec string, nb, ib int) map[core.Kind]float64 {
		mu.Lock()
		seen[point{family, prec, nb, ib}]++
		mu.Unlock()
		return synthSecs(family, prec, nb, ib)
	})
	return func() map[point]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(seen)
	}
}

// TestCalibrationPoints pins, without a clock, which (nb, ib) points each
// request measures: only the tile sizes its decision prices, each once,
// however many callers ask at the same time, and afresh under the other
// kernel family.
func TestCalibrationPoints(t *testing.T) {
	fam, other := vec.ActiveFamily(), vec.FamilySIMD
	if fam == vec.FamilySIMD {
		other = vec.FamilyGeneric
	}
	d := func(nb, ib int) point { return point{fam, "float64", nb, ib} }
	var grid []point
	for _, nb := range calNBs {
		grid = append(grid, d(nb, IBFor(nb)))
	}
	resolve := func(req Request) func(*testing.T) {
		return func(t *testing.T) {
			if _, err := Resolve[float64](req); err != nil {
				t.Fatal(err)
			}
		}
	}
	tall := Request{M: 2048, N: 256, Workers: 2}
	pinned := Request{M: 2048, N: 256, Workers: 2, PinNB: 100}
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
		want []point
	}{
		{"pinned-nb", resolve(pinned), []point{d(100, 25)}},
		{"pinned-nb-ib", resolve(Request{M: 2048, N: 256, Workers: 2, PinNB: 100, PinIB: 20}), []point{d(100, 20)}},
		{"unpinned-tall", resolve(tall), grid},
		{"under-192", resolve(Request{M: 150, N: 100, Workers: 2}),
			[]point{d(48, 12), d(64, 16), d(96, 24), d(128, 32), d(150, 37)}},
		// Above the largest candidate a pin is priced from that point.
		{"pinned-above-grid", resolve(Request{M: 2048, N: 256, Workers: 2, PinNB: 400}), []point{d(192, 48)}},
		{"pinned-stream", func(t *testing.T) {
			if _, err := ResolveStream[float64](300, 2, 96, 24); err != nil {
				t.Fatal(err)
			}
		}, []point{d(96, 24)}},
		{"simd-flip", func(t *testing.T) {
			if !vec.SIMDSupported() {
				t.Skip("no vector backend: the kernel family cannot flip")
			}
			resolve(pinned)(t)
			prev := vec.SIMDEnabled()
			vec.SetSIMD(!prev)
			defer vec.SetSIMD(prev)
			resolve(pinned)(t)
			n := 0
			decided.Range(func(any, any) bool { n++; return true })
			if n != 2 {
				t.Errorf("%d decisions cached across the flip, want 2 (one per family)", n)
			}
		}, []point{d(100, 25), {other, "float64", 100, 25}}},
		{"concurrent-first-callers", func(t *testing.T) {
			const callers = 8
			decs := make([]Candidate, callers)
			var wg sync.WaitGroup
			for i := range decs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := Resolve[float64](tall)
					if err != nil {
						t.Error(err)
					}
					decs[i] = c
				}()
			}
			wg.Wait()
			for i := range decs {
				if decs[i] != decs[0] {
					t.Fatalf("concurrent Resolve diverged: %+v vs %+v", decs[i], decs[0])
				}
			}
		}, grid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := countPoints(t)
			tc.run(t)
			got := counts()
			for _, p := range tc.want {
				if got[p] != 1 {
					t.Errorf("point %+v measured %d times, want 1", p, got[p])
				}
				delete(got, p)
			}
			for p, n := range got {
				t.Errorf("measured %+v (%d times), which the request does not price", p, n)
			}
		})
	}
}

// TestCalibrationWritesNothing runs a real pinned resolution, micro-
// benchmarks and all, with the user's home and cache directories pointed
// at an empty directory, which must stay empty: calibration lives in the
// process.
func TestCalibrationWritesNothing(t *testing.T) {
	home := t.TempDir()
	t.Setenv("HOME", home)
	t.Setenv("XDG_CACHE_HOME", home)
	Reset()
	t.Cleanup(Reset)
	c, err := Resolve[float64](Request{M: 256, N: 64, Workers: 1, PinNB: 32, PinIB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.NB != 32 || c.IB != 8 || !(c.PredictedSec > 0) {
		t.Fatalf("pinned resolution: %+v", c)
	}
	entries, err := os.ReadDir(home)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("calibration left %s behind", e.Name())
	}
}

// TestConcurrentResolveSingleFlights mixes Resolve calls across precisions
// and shapes under the race detector: each point measured once per
// precision, identical decisions per shape.
func TestConcurrentResolveSingleFlights(t *testing.T) {
	counts := countPoints(t)

	const per = 8
	decs := make([]Candidate, per)
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Resolve[float64](Request{M: 512, N: 256, Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			decs[i] = d
			if _, err := Resolve[complex128](Request{M: 300, N: 300, Workers: 4}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got := counts()
	if len(got) != 2*len(calNBs) {
		t.Errorf("measured %d points, want %d (the candidate grid per precision)", len(got), 2*len(calNBs))
	}
	for p, n := range got {
		if n != 1 {
			t.Errorf("point %+v measured %d times, want 1", p, n)
		}
	}
	for i := 1; i < per; i++ {
		if decs[i] != decs[0] {
			t.Fatalf("concurrent Resolve diverged: %+v vs %+v", decs[i], decs[0])
		}
	}
}

func TestResolveDeterministicAndPinned(t *testing.T) {
	withHook(t, synthSecs)

	a, err := Resolve[float64](Request{M: 512, N: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve[float64](Request{M: 512, N: 256, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Resolve not deterministic: %+v vs %+v", a, b)
	}
	if a.NB < 1 || a.IB < 1 || a.IB > a.NB {
		t.Fatalf("Resolve produced invalid sizes: %+v", a)
	}

	pinned, err := Resolve[float64](Request{M: 512, N: 256, Workers: 4, PinNB: 100, PinIB: 20})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.NB != 100 || pinned.IB != 20 {
		t.Fatalf("pins not honored: %+v", pinned)
	}

	if _, err := Resolve[float64](Request{M: 0, N: 5}); err == nil {
		t.Fatal("Resolve accepted an empty shape")
	}
}

func TestRankSortedAndExhaustive(t *testing.T) {
	withHook(t, synthSecs)
	ranked := Rank[float64](Request{M: 512, N: 256, Workers: 4})
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	algs, fams := map[core.Algorithm]bool{}, map[core.Kernels]bool{}
	for i, c := range ranked {
		if i > 0 && c.PredictedSec < ranked[i-1].PredictedSec {
			t.Fatalf("ranking not sorted at %d", i)
		}
		if !c.Simulated {
			t.Errorf("small grid candidate fell back to roofline: %+v", c)
		}
		algs[c.Algorithm] = true
		fams[c.Kernels] = true
	}
	if len(algs) != len(core.Algorithms) || len(fams) != 2 {
		t.Fatalf("ranking not exhaustive: %d algorithms, %d families", len(algs), len(fams))
	}
}

// TestRankRooflineForHugeGrids checks the resolver does not try to build
// million-task DAGs: huge shapes use the closed-form roofline path.
func TestRankRooflineForHugeGrids(t *testing.T) {
	withHook(t, synthSecs)
	ranked := Rank[float64](Request{M: 100_000, N: 50_000, Workers: 48})
	if len(ranked) == 0 {
		t.Fatal("empty ranking for huge shape")
	}
	for _, c := range ranked {
		if c.Simulated {
			t.Fatalf("huge grid %d×%d tiles was fully simulated", c.P, c.Q)
		}
	}
}

func TestCandidatePoints(t *testing.T) {
	// Pinned nb is the single candidate; default ib follows IBFor.
	pts := candidatePoints(512, 256, 100, 0)
	if len(pts) != 1 || pts[0].nb != 100 || pts[0].ib != IBFor(100) {
		t.Fatalf("pinned nb: %+v", pts)
	}
	// nb candidates never exceed the matrix.
	for _, pt := range candidatePoints(40, 30, 0, 0) {
		if pt.nb > 40 {
			t.Errorf("candidate nb %d exceeds the 40×30 matrix", pt.nb)
		}
		if pt.ib > pt.nb {
			t.Errorf("candidate ib %d exceeds nb %d", pt.ib, pt.nb)
		}
	}
	// A pinned ib floors nb.
	for _, pt := range candidatePoints(512, 512, 0, 80) {
		if pt.nb < 80 || pt.ib != 80 {
			t.Errorf("pinned ib not honored: %+v", pt)
		}
	}
}

func TestResolveStream(t *testing.T) {
	withHook(t, synthSecs)
	d, err := ResolveStream[float64](300, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.NB < 1 || d.NB > 300 || d.IB < 1 || d.IB > d.NB {
		t.Fatalf("stream decision out of range: %+v", d)
	}
	d2, err := ResolveStream[float64](300, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != d2 {
		t.Fatalf("stream resolution not deterministic: %+v vs %+v", d, d2)
	}
	pinned, err := ResolveStream[float64](300, 4, 96, 24)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.NB != 96 || pinned.IB != 24 {
		t.Fatalf("stream pins not honored: %+v", pinned)
	}
	if _, err := ResolveStream[float64](0, 4, 0, 0); err == nil {
		t.Fatal("ResolveStream accepted n=0")
	}
}

// TestResolveStreamPricesMergeDAG: a stream decision is priced on the merge
// DAG a one-tile-row batch really runs under Auto — FlatTree with TS
// kernels, the batch tile TSQRT'd straight into the resident triangle, with
// no GEQRT and no UNMQR — so at width 1 its per-row time times nb is exactly
// the sum of that DAG's task seconds. That holds for the work bound too,
// which prices a merge of more than simTaskLimit tasks (q = 400 at a pinned
// nb = 48).
func TestResolveStreamPricesMergeDAG(t *testing.T) {
	withGoldenRates(t)
	for _, tc := range []struct{ n, pinNB int }{{64, 0}, {256, 0}, {300, 0}, {400 * 48, 48}} {
		c, err := ResolveStream[float64](tc.n, 1, tc.pinNB, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := (tc.n + c.NB - 1) / c.NB
		if c.Algorithm != core.FlatTree || c.Kernels != core.TS || c.Simulated != (q < 400) {
			t.Errorf("n=%d: priced %v %v (simulated %v), want FlatTree TS (simulated %v)",
				tc.n, c.Algorithm, c.Kernels, c.Simulated, q < 400)
		}
		d := core.BuildStreamDAG(q, 1, core.TS, false)
		if sum := goldenTaskSecs(d, tile.NewGrid(c.NB, c.NB, c.NB)); math.Abs(c.PredictedSec*float64(c.NB)-sum) > 1e-10*sum {
			t.Errorf("n=%d: predicted %.9g s per row at nb=%d, the merge DAG's tasks sum to %.9g s per batch",
				tc.n, c.PredictedSec, c.NB, sum)
		}
		for _, task := range d.Tasks {
			if task.Kind != core.KTSQRT && task.Kind != core.KTSMQR {
				t.Fatalf("n=%d: the one-tile-row merge runs %v", tc.n, task)
			}
		}
	}
}

func TestEstTasksMatchesDAG(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {8, 4}, {10, 10}, {15, 2}, {3, 7}} {
		p, q := g[0], g[1]
		list, err := core.Generate(core.Greedy, p, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exact := core.BuildDAG(list, core.TT).NumTasks()
		est := estTasks(p, q)
		// The estimate only guards the simulation budget; it must bound the
		// real count from above without being wildly off.
		if est < exact {
			t.Errorf("estTasks(%d,%d) = %d underestimates the real %d tasks", p, q, est, exact)
		}
		if est > 3*exact+8 {
			t.Errorf("estTasks(%d,%d) = %d is far above the real %d tasks", p, q, est, exact)
		}
	}
}

// TestDefaultWidthHonoursEnv pins the one default width: a request that
// names no width is scored at sched.DefaultWorkers — TILEDQR_WORKERS when
// set — by Rank, Resolve and ResolveStream alike, not at GOMAXPROCS.
func TestDefaultWidthHonoursEnv(t *testing.T) {
	t.Setenv("TILEDQR_WORKERS", "3")
	withHook(t, synthSecs)

	dflt := Rank[float64](Request{M: 1024, N: 256})
	if want := Rank[float64](Request{M: 1024, N: 256, Workers: 3}); !slices.Equal(dflt, want) {
		t.Errorf("Rank at the default width differs from Rank at width 3: best %+v vs %+v", dflt[0], want[0])
	}
	if one := Rank[float64](Request{M: 1024, N: 256, Workers: 1}); dflt[0].PredictedSec >= one[0].PredictedSec {
		t.Errorf("default width predicted %g s, no faster than width 1 (%g s): TILEDQR_WORKERS=3 ignored",
			dflt[0].PredictedSec, one[0].PredictedSec)
	}

	if _, err := Resolve[float64](Request{M: 1024, N: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveStream[float64](300, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	decided.Range(func(k, _ any) bool {
		if key := k.(decKey); key.workers != 3 {
			t.Errorf("decision cached for width %d, want 3: %+v", key.workers, key)
		}
		return true
	})
}

// goldenRates are the synthetic calibration of TestResolveGoldens: the
// six kernels at distinct GFLOP/s, in the order the paper's measurements
// put them (the update kernels outrun the panel kernels, and the TS pair
// outruns the TT pair), each mildly faster on larger tiles.
func goldenRates(nb int) map[core.Kind]float64 {
	base := map[core.Kind]float64{core.KGEQRT: 4, core.KUNMQR: 8, core.KTSQRT: 5,
		core.KTSMQR: 10, core.KTTQRT: 3, core.KTTMQR: 7}
	g := map[core.Kind]float64{}
	for k, r := range base {
		g[k] = r * (0.75 + float64(nb)/256)
	}
	return g
}

// withGoldenRates installs goldenRates as the calibration for the test.
func withGoldenRates(t *testing.T) {
	withHook(t, func(_, _ string, nb, _ int) map[core.Kind]float64 {
		secs := map[core.Kind]float64{}
		for k, r := range goldenRates(nb) {
			secs[k] = Gflops[float64](k.Weight(), nb, r)
		}
		return secs
	})
}

// TestResolveGoldens pins, without a clock, what Resolve picks from a fixed
// calibration on tile grids 4×2 through 40×4 (m×n = 64p × 64q) at widths 1
// and 4, and checks the model under the picks: at width 1 nothing overlaps,
// so the predicted time of a pick is exactly the sum over its DAG's tasks of
// the calibrated seconds of each task plus the dispatch overhead. A change
// to the schedule model or the candidate grid moves a golden on purpose;
// the measured envelope of the picks is `qrperf -tune -measure`'s.
func TestResolveGoldens(t *testing.T) {
	withGoldenRates(t)
	type pick struct {
		alg core.Algorithm
		kk  core.Kernels
		nb  int
	}
	for _, tc := range []struct {
		p, q, workers int
		want          pick
	}{
		// Alone, a worker wants the fewest, cheapest tasks: the flat TS tree,
		// on larger tiles once there are more columns to amortize them over.
		{4, 2, 1, pick{core.FlatTree, core.TS, 64}},
		{8, 2, 1, pick{core.FlatTree, core.TS, 64}},
		{16, 2, 1, pick{core.FlatTree, core.TS, 64}},
		{10, 4, 1, pick{core.FlatTree, core.TS, 128}},
		{20, 4, 1, pick{core.FlatTree, core.TS, 128}},
		{40, 4, 1, pick{core.FlatTree, core.TS, 128}},
		// Four workers buy shorter critical paths on the two-column grids.
		{4, 2, 4, pick{core.Greedy, core.TS, 48}},
		{8, 2, 4, pick{core.Asap, core.TS, 64}},
		{16, 2, 4, pick{core.BinaryTree, core.TS, 64}},
		{10, 4, 4, pick{core.FlatTree, core.TS, 64}},
		{20, 4, 4, pick{core.FlatTree, core.TS, 64}},
		// At nb = 64 the 36 tile rows below the diagonal run as 18 rows
		// 128 tall (tile.FactorGrid): half the eliminations, and a
		// binary tree over them is short enough to fill four workers.
		{40, 4, 4, pick{core.BinaryTree, core.TS, 64}},
	} {
		c, err := Resolve[float64](Request{M: 64 * tc.p, N: 64 * tc.q, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := (pick{c.Algorithm, c.Kernels, c.NB}); got != tc.want || c.IB != IBFor(c.NB) {
			t.Errorf("%d×%d tiles at width %d: picked %v %v nb=%d ib=%d, want %v %v nb=%d ib=%d",
				tc.p, tc.q, tc.workers, c.Algorithm, c.Kernels, c.NB, c.IB, tc.want.alg, tc.want.kk, tc.want.nb, IBFor(tc.want.nb))
		}
		if tc.workers != 1 {
			continue
		}
		list, err := core.Generate(c.Algorithm, c.P, c.Q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := tile.FactorGrid(64*tc.p, 64*tc.q, c.NB)
		if g.P != c.P || g.Q != c.Q {
			t.Errorf("%d×%d tiles: the pick reports a %d×%d grid, its DAG runs on %d×%d", tc.p, tc.q, c.P, c.Q, g.P, g.Q)
		}
		if sum := goldenTaskSecs(core.BuildDAG(list, c.Kernels), g); math.Abs(c.PredictedSec-sum) > 1e-12*sum {
			t.Errorf("%d×%d tiles at width 1: predicted %.9g s, the pick's tasks sum to %.9g s", tc.p, tc.q, c.PredictedSec, sum)
		}
	}
	// Below the diagonal of an 80×2-tile matrix lie 78 tile rows, which run
	// as 20 rows 256 tall: every candidate at nb = 64 is priced on that
	// grid, its whole-tile kernels at four times their nb-row seconds. (The
	// TT trees tie there at width 1, so the pick itself is not pinned.)
	for _, c := range Rank[float64](Request{M: 64 * 80, N: 64 * 2, Workers: 1}) {
		if c.NB != 64 || !c.Simulated {
			continue
		}
		g := tile.FactorGrid(64*80, 64*2, 64)
		if g.P != 22 || c.P != 22 {
			t.Fatalf("80×2 tiles at nb=64: candidate on %d tile rows, grid %d; want 22", c.P, g.P)
		}
		list, err := core.Generate(c.Algorithm, c.P, c.Q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sum := goldenTaskSecs(core.BuildDAG(list, c.Kernels), g); math.Abs(c.PredictedSec-sum) > 1e-12*sum {
			t.Errorf("80×2 tiles, %v %v at width 1: predicted %.9g s, its tasks sum to %.9g s", c.Algorithm, c.Kernels, c.PredictedSec, sum)
		}
	}
}

// goldenTaskSecs is what a width-1 schedule of d on grid g costs under
// goldenRates: nothing overlaps, so each task's calibrated seconds plus the
// dispatch overhead, summed, the whole-tile kernels of the rows below g.Top
// scaled by MB/NB.
func goldenTaskSecs(d *core.DAG, g tile.Grid) float64 {
	rates, cube := goldenRates(g.NB), float64(g.NB*g.NB*g.NB)
	var sum float64
	for _, task := range d.Tasks {
		units := float64(task.Kind.Weight())
		switch task.Kind {
		case core.KGEQRT, core.KUNMQR, core.KTSQRT, core.KTSMQR:
			if task.I > g.Top {
				units *= float64(g.MB) / float64(g.NB)
			}
		}
		sum += units*cube/3/(rates[task.Kind]*1e9) + dispatchSec
	}
	return sum
}
