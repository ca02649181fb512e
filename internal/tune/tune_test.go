package tune

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// synthPoints builds a plausible synthetic calibration: throughput mildly
// increasing with nb, so larger tiles win on pure efficiency and the
// dispatch-overhead term is what pushes small shapes to small tiles.
func synthPoints() []Point {
	var pts []Point
	for _, nb := range []int{48, 64, 96, 128, 192} {
		g := map[string]float64{}
		for k := core.Kind(0); k < 6; k++ {
			g[k.String()] = 2 + float64(nb)/128
		}
		pts = append(pts, Point{NB: nb, IB: IBFor(nb), Gflops: g})
	}
	return pts
}

// fam1 wraps one family's points in the on-disk layout, under the family
// the vec backend currently dispatches to (what ForPrecision will look up).
func fam1(pts []Point) map[string]map[string][]Point {
	return map[string]map[string][]Point{vec.ActiveFamily(): {"float64": pts}}
}

// withHook installs a synthetic measurement function for the test and
// resets all in-process calibration state around it. Tests using it must
// not run in parallel (package-level state).
func withHook(t *testing.T, f func(family, prec string) []Point) {
	t.Helper()
	measureHook = f
	Reset()
	t.Cleanup(func() {
		measureHook = nil
		Reset()
	})
}

func TestCalibrationCorruptionFallsBackToMeasurement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calibration.json")
	t.Setenv(EnvCalibration, path)

	good, _ := json.Marshal(fileFormat{Version: SchemaVersion, Families: fam1(synthPoints())})
	cases := map[string][]byte{
		"truncated":      good[:len(good)/2],
		"garbage":        []byte("{{{ not json at all"),
		"empty":          {},
		"wrong-version":  mustJSON(fileFormat{Version: SchemaVersion + 1, Families: fam1(synthPoints())}),
		"no-points":      mustJSON(fileFormat{Version: SchemaVersion, Families: map[string]map[string][]Point{}}),
		"zero-gflops":    mustJSON(fileFormat{Version: SchemaVersion, Families: fam1([]Point{{NB: 64, IB: 16, Gflops: map[string]float64{"GEQRT": 0}}})}),
		"ib-exceeds-nb":  mustJSON(fileFormat{Version: SchemaVersion, Families: fam1([]Point{{NB: 16, IB: 64, Gflops: map[string]float64{"GEQRT": 1}}})}),
		"negative-sizes": mustJSON(fileFormat{Version: SchemaVersion, Families: fam1([]Point{{NB: -1, IB: -1, Gflops: map[string]float64{"GEQRT": 1}}})}),
		// The exact layout written by schema version 1, before the kernel
		// family axis: must be ignored (recalibrated), never misread.
		"stale-v1-schema": []byte(`{"version":1,"precisions":{"float64":[{"nb":64,"ib":16,"gflops":{"GEQRT":3}}]}}`),
		// Version 3's layout is today's, but its complex SIMD rates predate
		// the packed complex GEMM: a well-formed v3 file must recalibrate too.
		"stale-v3-schema": mustJSON(fileFormat{Version: 3, Families: fam1(synthPoints())}),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			var calls atomic.Int32
			withHook(t, func(string, string) []Point { calls.Add(1); return synthPoints() })
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			pts := ForPrecision[float64]()
			if len(pts) == 0 {
				t.Fatal("no calibration points after corrupt cache")
			}
			if calls.Load() != 1 {
				t.Fatalf("corrupt cache %q: measured %d times, want 1 (recalibration)", name, calls.Load())
			}
			// The recalibration must have repaired the file on disk.
			if got := loadCalibration(vec.ActiveFamily(), "float64"); got == nil {
				t.Fatalf("corrupt cache %q: recalibration did not persist a valid file", name)
			}
		})
	}
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

func TestCalibrationRoundTripAndReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	t.Setenv(EnvCalibration, path)
	var calls atomic.Int32
	withHook(t, func(string, string) []Point { calls.Add(1); return synthPoints() })

	first := ForPrecision[float64]()
	Reset() // drop in-process state; the next call must load from disk
	second := ForPrecision[float64]()
	if calls.Load() != 1 {
		t.Fatalf("measured %d times, want 1 (second run loads the cache)", calls.Load())
	}
	if len(first) != len(second) {
		t.Fatalf("cache round trip changed point count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].NB != second[i].NB || first[i].IB != second[i].IB {
			t.Fatalf("cache round trip changed point %d: %+v vs %+v", i, first[i], second[i])
		}
		for k, v := range first[i].Gflops {
			if second[i].Gflops[k] != v {
				t.Fatalf("cache round trip changed %s@nb=%d", k, first[i].NB)
			}
		}
	}
}

func TestCalibrationMergesPrecisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	t.Setenv(EnvCalibration, path)
	withHook(t, func(string, string) []Point { return synthPoints() })
	ForPrecision[float64]()
	ForPrecision[complex128]()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f fileFormat
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	fam := vec.ActiveFamily()
	for _, prec := range []string{"float64", "complex128"} {
		if len(f.Families[fam][prec]) == 0 {
			t.Errorf("cache file lost precision %s: have %v", prec, f.Families)
		}
	}
}

// TestCalibrationPerFamily checks the cache keeps the two kernel families'
// points apart and that ForFamily measures exactly the family it was asked
// for (flipping the vec backend if needed, restoring it afterwards).
func TestCalibrationPerFamily(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	t.Setenv(EnvCalibration, path)
	var families []string
	withHook(t, func(family, prec string) []Point {
		families = append(families, family)
		return synthPoints()
	})
	before := vec.ActiveFamily()
	generic := ForFamily[float64](vec.FamilyGeneric)
	active := ForPrecision[float64]()
	if vec.ActiveFamily() != before {
		t.Fatalf("calibration changed the active family: %s → %s", before, vec.ActiveFamily())
	}
	if len(generic) == 0 || len(active) == 0 {
		t.Fatal("missing calibration points")
	}
	wantFams := []string{vec.FamilyGeneric}
	if before != vec.FamilyGeneric {
		wantFams = append(wantFams, before)
	}
	if len(families) != len(wantFams) {
		t.Fatalf("measured families %v, want %v", families, wantFams)
	}
	for i, f := range wantFams {
		if families[i] != f {
			t.Fatalf("measured families %v, want %v", families, wantFams)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f fileFormat
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, fam := range wantFams {
		if len(f.Families[fam]["float64"]) == 0 {
			t.Errorf("cache file missing family %s: have %v", fam, f.Families)
		}
	}
}

// TestForFamilyUnsupportedSIMDDegrades pins the contract that asking for
// the SIMD family on a host without a vector backend serves the generic
// calibration instead of inventing one (meaningful on the noasm build).
func TestForFamilyUnsupportedSIMDDegrades(t *testing.T) {
	if vec.SIMDSupported() {
		t.Skip("host has a SIMD backend; degradation path not reachable")
	}
	t.Setenv(EnvCalibration, "off")
	var calls atomic.Int32
	withHook(t, func(family, prec string) []Point {
		calls.Add(1)
		if family != vec.FamilyGeneric {
			t.Errorf("measured family %q on a host without SIMD", family)
		}
		return synthPoints()
	})
	ForFamily[float64](vec.FamilySIMD)
	ForFamily[float64](vec.FamilyGeneric)
	if calls.Load() != 1 {
		t.Fatalf("measured %d times, want 1 (simd request degrades to the generic entry)", calls.Load())
	}
}

func TestCalibrationPersistenceOff(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point { return synthPoints() })
	if pts := ForPrecision[float64](); len(pts) == 0 {
		t.Fatal("persistence off must still calibrate in process")
	}
}

func TestCacheLocation(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	if got := CacheLocation(); got != "in-process only ($"+EnvCalibration+"=off)" {
		t.Errorf("off sentinel described as %q", got)
	}
	t.Setenv(EnvCalibration, "/tmp/somewhere.json")
	if got := CacheLocation(); got != "/tmp/somewhere.json ($"+EnvCalibration+")" {
		t.Errorf("env override described as %q", got)
	}
}

// TestCalibrationSingleFlight hammers first-use calibration from many
// goroutines (run under -race in CI): the micro-benchmark must run exactly
// once and everyone must observe the same points.
func TestCalibrationSingleFlight(t *testing.T) {
	t.Setenv(EnvCalibration, filepath.Join(t.TempDir(), "cal.json"))
	var calls atomic.Int32
	withHook(t, func(string, string) []Point { calls.Add(1); return synthPoints() })

	const goroutines = 16
	results := make([][]Point, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ForPrecision[float64]()
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("calibration ran %d times under concurrency, want 1", calls.Load())
	}
	for i := 1; i < goroutines; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("goroutine %d observed a different calibration slice", i)
		}
	}
}

// TestConcurrentResolveSingleFlightsPerPrecision mixes Resolve calls across
// precisions and shapes under the race detector: one measurement per
// precision, identical decisions per shape.
func TestConcurrentResolveSingleFlights(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	var calls atomic.Int32
	withHook(t, func(string, string) []Point { calls.Add(1); return synthPoints() })

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
	if calls.Load() != 2 {
		t.Fatalf("calibrated %d times, want 2 (one per precision)", calls.Load())
	}
	for i := 1; i < per; i++ {
		if decs[i] != decs[0] {
			t.Fatalf("concurrent Resolve diverged: %+v vs %+v", decs[i], decs[0])
		}
	}
}

func TestResolveDeterministicAndPinned(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point { return synthPoints() })

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
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point { return synthPoints() })
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
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point { return synthPoints() })
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

func TestInterpGflops(t *testing.T) {
	pts := []Point{
		{NB: 64, Gflops: map[string]float64{"GEQRT": 2}},
		{NB: 128, Gflops: map[string]float64{"GEQRT": 4}},
	}
	for _, tc := range []struct {
		nb   int
		want float64
	}{{32, 2}, {64, 2}, {96, 3}, {128, 4}, {256, 4}} {
		if got := interpGflops(pts, tc.nb, "GEQRT"); got != tc.want {
			t.Errorf("interp at nb=%d: %g, want %g", tc.nb, got, tc.want)
		}
	}
}

func TestResolveStream(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point { return synthPoints() })
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
	t.Setenv(EnvCalibration, "off")
	t.Setenv("TILEDQR_WORKERS", "3")
	withHook(t, func(string, string) []Point { return synthPoints() })

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
func goldenRates(nb int) map[string]float64 {
	base := map[core.Kind]float64{core.KGEQRT: 4, core.KUNMQR: 8, core.KTSQRT: 5,
		core.KTSMQR: 10, core.KTTQRT: 3, core.KTTMQR: 7}
	g := map[string]float64{}
	for k, r := range base {
		g[k.String()] = r * (0.75 + float64(nb)/256)
	}
	return g
}

// withGoldenRates installs goldenRates as the calibration for the test.
func withGoldenRates(t *testing.T) {
	t.Setenv(EnvCalibration, "off")
	withHook(t, func(string, string) []Point {
		var pts []Point
		for _, nb := range calNBs {
			pts = append(pts, Point{NB: nb, IB: IBFor(nb), Gflops: goldenRates(nb)})
		}
		return pts
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
		sum += units*cube/3/(rates[task.Kind.String()]*1e9) + dispatchSec
	}
	return sum
}
