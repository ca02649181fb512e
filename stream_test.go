package tiledqr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// batchSchedule returns the row counts of each batch for one of the three
// ingestion patterns the streaming subsystem must be insensitive to.
func batchSchedule(m int, pattern string, rng *rand.Rand) []int {
	var sizes []int
	switch pattern {
	case "single":
		for r := 0; r < m; r++ {
			sizes = append(sizes, 1)
		}
	case "fixed":
		for r := 0; r < m; r += 37 {
			sizes = append(sizes, min(37, m-r))
		}
	case "random":
		for r := 0; r < m; {
			s := 1 + rng.Intn(80)
			s = min(s, m-r)
			sizes = append(sizes, s)
			r += s
		}
	default:
		panic("unknown pattern")
	}
	return sizes
}

// rowsOf copies rows [r0, r0+k) of a into a fresh matrix.
func rowsOf(a *Dense, r0, k int) *Dense {
	out := NewMat[float64](k, a.Cols)
	for i := 0; i < k; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(i, j, a.At(r0+i, j))
		}
	}
	return out
}

func zRowsOf(a *ZDense, r0, k int) *ZDense {
	out := NewMat[complex128](k, a.Cols)
	for i := 0; i < k; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(i, j, a.At(r0+i, j))
		}
	}
	return out
}

// maxUpperDiffSigned compares two upper triangular factors up to the per-row
// sign ambiguity of a QR factorization.
func maxUpperDiffSigned(got, want *Dense, n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		sign := 1.0
		if got.At(i, i)*want.At(i, i) < 0 {
			sign = -1
		}
		for j := i; j < n; j++ {
			worst = math.Max(worst, math.Abs(sign*got.At(i, j)-want.At(i, j)))
		}
	}
	return worst
}

// TestStreamMatchesFactor feeds the same rows to Stream[float64] in single-row,
// fixed-size, and random-size batches and checks that R (up to row signs)
// and the least-squares solution agree with the one-shot factorization to
// 1e-12, across every parameter-free algorithm, both kernel families, and
// non-tile-divisible shapes.
func TestStreamMatchesFactor(t *testing.T) {
	// Shapes stay comfortably overdetermined: the LS comparison between two
	// valid factorizations amplifies by κ(A), and a square Gaussian matrix
	// can push κ·ε past the 1e-12 agreement bound this test asserts.
	shapes := []struct{ m, n, nb, ib int }{
		{137, 45, 16, 8}, // ragged in both directions
		{300, 64, 32, 8}, // column-divisible, tall
		{130, 97, 32, 8}, // ragged p×q with ragged diagonal tiles
	}
	const nrhs = 2
	for _, sh := range shapes {
		a := RandomDense(sh.m, sh.n, int64(sh.m*sh.n))
		b := RandomDense(sh.m, nrhs, int64(sh.m+sh.n))
		for _, alg := range Algorithms {
			opt := Options{Algorithm: alg, TileSize: sh.nb, InnerBlock: sh.ib, Workers: 4}
			f, err := Factor(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			rRef := f.R()
			xRef, err := f.SolveLS(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, pattern := range []string{"single", "fixed", "random"} {
				for _, kern := range []Kernels{TT, TS} {
					sopt := opt
					sopt.Kernels = kern
					s, err := NewStreamOf[float64](sh.n, sopt)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(sh.m)))
					r0, batches := 0, 0
					for _, k := range batchSchedule(sh.m, pattern, rng) {
						if err := s.AppendRHS(rowsOf(a, r0, k), rowsOf(b, r0, k)); err != nil {
							t.Fatal(err)
						}
						r0 += k
						batches++
					}
					if pattern == "fixed" && batches < 3 {
						t.Fatalf("fixed pattern produced only %d batches", batches)
					}
					if s.Rows() != int64(sh.m) {
						t.Fatalf("ingested %d rows, want %d", s.Rows(), sh.m)
					}
					sR, err := s.R()
					if err != nil {
						t.Fatal(err)
					}
					if d := maxUpperDiffSigned(sR, rRef, sh.n); d > 1e-12 {
						t.Errorf("%v/%v %dx%d %s: stream R differs from Factor R by %.3e", alg, kern, sh.m, sh.n, pattern, d)
					}
					x, err := s.SolveLS()
					if err != nil {
						t.Fatal(err)
					}
					var worst float64
					for i := 0; i < sh.n; i++ {
						for j := 0; j < nrhs; j++ {
							worst = math.Max(worst, math.Abs(x.At(i, j)-xRef.At(i, j)))
						}
					}
					if worst > 1e-12 {
						t.Errorf("%v/%v %dx%d %s: stream LS solution differs by %.3e", alg, kern, sh.m, sh.n, pattern, worst)
					}
				}
			}
		}
	}
}

// TestZStreamMatchesFactor is the complex-domain agreement test. The
// reflector construction keeps R's diagonal real, so the row ambiguity is a
// ±1 sign exactly as in the real domain.
func TestZStreamMatchesFactor(t *testing.T) {
	const m, n, nb, ib, nrhs = 151, 43, 16, 8, 2
	a := RandomMat[complex128](m, n, 5)
	b := RandomMat[complex128](m, nrhs, 6)
	opt := Options{TileSize: nb, InnerBlock: ib, Workers: 4}
	f, err := FactorComplex(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	rRef := f.R()
	xRef, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"single", "fixed", "random"} {
		s, err := NewStreamOf[complex128](n, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		r0 := 0
		for _, k := range batchSchedule(m, pattern, rng) {
			if err := s.AppendRHS(zRowsOf(a, r0, k), zRowsOf(b, r0, k)); err != nil {
				t.Fatal(err)
			}
			r0 += k
		}
		rs, err := s.R()
		if err != nil {
			t.Fatal(err)
		}
		var worstR float64
		for i := 0; i < n; i++ {
			sign := complex(1, 0)
			if real(rs.At(i, i))*real(rRef.At(i, i)) < 0 {
				sign = -1
			}
			for j := i; j < n; j++ {
				d := sign*rs.At(i, j) - rRef.At(i, j)
				worstR = math.Max(worstR, math.Hypot(real(d), imag(d)))
			}
		}
		if worstR > 1e-12 {
			t.Errorf("%s: complex stream R differs by %.3e", pattern, worstR)
		}
		x, err := s.SolveLS()
		if err != nil {
			t.Fatal(err)
		}
		var worstX float64
		for i := 0; i < n; i++ {
			for j := 0; j < nrhs; j++ {
				d := x.At(i, j) - xRef.At(i, j)
				worstX = math.Max(worstX, math.Hypot(real(d), imag(d)))
			}
		}
		if worstX > 1e-12 {
			t.Errorf("%s: complex stream LS solution differs by %.3e", pattern, worstX)
		}
	}
}

// TestStreamMemoryBound asserts the O(n² + batch) bound: the retained
// footprint after 10 batches equals the footprint after 60 — no structure
// grows with the number of rows ingested.
func TestStreamMemoryBound(t *testing.T) {
	const n, nb, batchRows = 64, 32, 48
	opt := Options{TileSize: nb, InnerBlock: 8, Workers: 2}
	s, err := NewStreamOf[float64](n, opt)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(batches int) {
		for i := 0; i < batches; i++ {
			a := RandomDense(batchRows, n, int64(100+i))
			b := RandomDense(batchRows, 1, int64(200+i))
			if err := s.AppendRHS(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(10)
	if _, err := s.SolveLS(); err != nil { // materialize the solve scratch too
		t.Fatal(err)
	}
	after10 := s.Footprint()
	ingest(50)
	if _, err := s.SolveLS(); err != nil {
		t.Fatal(err)
	}
	after60 := s.Footprint()
	if after10 != after60 {
		t.Fatalf("footprint grew with ingested rows: %d elements after 10 batches, %d after 60", after10, after60)
	}
	if s.Rows() != 60*batchRows {
		t.Fatalf("rows = %d, want %d", s.Rows(), 60*batchRows)
	}
}

// TestNarrowStreamAppendAllocs: a stream stages its batches in tiles up to
// two tile rows tall however narrow the system is, and the kernels' scratch
// grows with a tile's height — TSQRT's panel copy and, for a wide stream,
// TSMQR's packed update. The merge scratch must follow the staged height,
// or every task allocates a fresh workspace (≥ ib·nb elements) on every
// append. The narrow row (n = 32 < nb, 128-row batches: one tile of the
// batch's own height) is a one-tile triangle, whose chain-shaped merge runs
// on the caller whatever the pool; the wide row (n = 256, q = 4, 256-row
// batches: two 128-row tile rows) runs its merge on the resident runtime
// of width 2 at Workers: 2.
func TestNarrowStreamAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector (sync.Pool drops Puts at random)")
	}
	// The staging and the inline runs' Locals come from free lists that a
	// GC does not empty, so one run of appends is measured for both rows. A
	// wide batch's staging (0.6 MB) is over the bound even spread over all
	// of them: a staging lost between appends would show.
	for _, tc := range []struct{ n, nb, ib, rows int }{{32, 128, 32, 128}, {256, 64, 16, 256}} {
		for _, workers := range []int{1, 2} {
			opt := Options{TileSize: tc.nb, InnerBlock: tc.ib, Workers: workers}
			s, err := NewStreamOf[float64](tc.n, opt)
			if err != nil {
				t.Fatal(err)
			}
			batch := RandomDense(tc.rows, tc.n, 5)
			appendOne := func() {
				if err := s.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // warm the staging pool and the workers' scratch
				appendOne()
			}
			const appends = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < appends; i++ {
				appendOne()
			}
			runtime.ReadMemStats(&after)
			perAppend := (after.TotalAlloc - before.TotalAlloc) / appends
			// One fresh kernel workspace is ≥ ib·nb elements; the bound sits
			// at half of that.
			if bound := uint64(tc.ib * tc.nb * 8 / 2); perAppend > bound {
				t.Errorf("n=%d workers=%d: %d B allocated per %d×%d append at nb=%d ib=%d, want no per-task workspace (≤ %d B)",
					tc.n, workers, perAppend, tc.rows, tc.n, tc.nb, tc.ib, bound)
			}
		}
	}
}

// TestWindowedAppendAllocs: a sliding window recycles the history buffers
// and aggregates that eviction frees, so once the window is full an append
// that also evicts allocates nothing the merge of a plain append does not
// (the executor's two closures) — in particular not a fresh batch-sized
// history buffer per append.
func TestWindowedAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops Puts at random)")
	}
	const n, nb, ib, window = 64, 32, 8, 128
	for _, workers := range []int{1, 2} {
		for _, rows := range []int{1, 32, 48} { // 48: the window is not a whole number of batches
			batch, rhs := RandomDense(rows, n, 5), RandomDense(rows, 1, 6)
			perAppend := func(windowRows int) float64 {
				s, err := NewStreamOf[float64](n, Options{TileSize: nb, InnerBlock: ib, Workers: workers, WindowRows: windowRows})
				if err != nil {
					t.Fatal(err)
				}
				appendOne := func() {
					if err := s.AppendRHS(batch, rhs); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3*window; i++ { // fill the window, every free list and the staging pool
					appendOne()
				}
				return testing.AllocsPerRun(2*window, appendOne)
			}
			if plain, windowed := perAppend(0), perAppend(window); windowed > plain {
				t.Errorf("workers=%d, %d-row batches: %.1f allocations per windowed append, %.1f per plain one", workers, rows, windowed, plain)
			}
		}
	}
}

// TestStreamResidualNorm checks the running residual against the directly
// computed ‖b − A·x‖ of the ingested system.
func TestStreamResidualNorm(t *testing.T) {
	const m, n, nb = 200, 24, 16
	a := RandomDense(m, n, 77)
	b := RandomDense(m, 1, 78)
	s, err := NewStreamOf[float64](n, Options{TileSize: nb, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < m; r0 += 25 {
		if err := s.AppendRHS(rowsOf(a, r0, 25), rowsOf(b, r0, 25)); err != nil {
			t.Fatal(err)
		}
	}
	x, err := s.SolveLS()
	if err != nil {
		t.Fatal(err)
	}
	res := MulOf(a, x)
	for i := 0; i < m; i++ {
		res.Set(i, 0, b.At(i, 0)-res.At(i, 0))
	}
	want := FrobeniusNormOf(res)
	got, err := s.ResidualNorm()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-10*math.Max(1, want) {
		t.Fatalf("running residual %.12e, direct residual %.12e", got, want)
	}
}

// TestStreamErrors exercises the API misuse guards of the streaming path.
func TestStreamErrors(t *testing.T) {
	opt := Options{TileSize: 16, InnerBlock: 8}
	if _, err := NewStreamOf[float64](0, opt); err == nil {
		t.Error("NewStreamOf[float64](0) should fail")
	}
	s, err := NewStreamOf[float64](8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows(nil); err == nil {
		t.Error("AppendRows(nil) should fail")
	}
	if err := s.AppendRows(NewMat[float64](3, 5)); err == nil {
		t.Error("column-count mismatch should fail")
	}
	if err := s.AppendRHS(RandomDense(3, 8, 1), nil); err == nil {
		t.Error("AppendRHS with nil rhs should fail")
	}
	if err := s.AppendRHS(RandomDense(3, 8, 1), NewMat[float64](2, 1)); err == nil {
		t.Error("rhs row mismatch should fail")
	}
	if _, err := s.SolveLS(); err == nil {
		t.Error("SolveLS without RHS tracking should fail")
	}
	if q, err := s.QTB(); err != nil || q != nil {
		t.Errorf("QTB should be (nil, nil) without RHS tracking, got (%v, %v)", q, err)
	}
	// Rows-only stream cannot start RHS tracking later.
	if err := s.AppendRows(RandomDense(4, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRHS(RandomDense(4, 8, 3), NewMat[float64](4, 1)); err == nil {
		t.Error("late RHS tracking should fail")
	}
	// RHS stream rejects RHS-free appends and width changes.
	sr, err := NewStreamOf[float64](8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.AppendRHS(RandomDense(4, 8, 2), NewMat[float64](4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sr.AppendRows(RandomDense(4, 8, 4)); err == nil {
		t.Error("AppendRows on an RHS-tracking stream should fail")
	}
	if err := sr.AppendRHS(RandomDense(4, 8, 5), NewMat[float64](4, 3)); err == nil {
		t.Error("changing the RHS width should fail")
	}
	// SolveLS before n rows are ingested.
	if _, err := sr.SolveLS(); err == nil {
		t.Error("SolveLS with fewer than n rows should fail")
	}
	// Complex guards share the core; spot-check the two wrapper-level ones.
	zs, err := NewStreamOf[complex128](4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := zs.AppendRows(nil); err == nil {
		t.Error("complex AppendRows(nil) should fail")
	}
	if err := zs.AppendRHS(RandomMat[complex128](2, 4, 1), nil); err == nil {
		t.Error("complex AppendRHS(nil rhs) should fail")
	}
}

// TestApplyNilB verifies the one-shot factorizations return errors instead
// of panicking when handed a nil right-hand side.
func TestApplyNilB(t *testing.T) {
	f, err := Factor(RandomDense(40, 20, 1), Options{TileSize: 16, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyQ(nil); err == nil {
		t.Error("ApplyQ(nil) should fail")
	}
	if err := f.ApplyQH(nil); err == nil {
		t.Error("real ApplyQH(nil) should fail")
	}
	if _, err := f.SolveLS(nil); err == nil {
		t.Error("SolveLS(nil) should fail")
	}
	zf, err := FactorComplex(RandomMat[complex128](40, 20, 1), Options{TileSize: 16, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := zf.ApplyQ(nil); err == nil {
		t.Error("complex ApplyQ(nil) should fail")
	}
	if err := zf.ApplyQH(nil); err == nil {
		t.Error("ApplyQH(nil) should fail")
	}
	if _, err := zf.SolveLS(nil); err == nil {
		t.Error("complex SolveLS(nil) should fail")
	}
}

// TestStreamRowsOnly checks the R-only path (no right-hand side): the
// triangle still matches the one-shot factorization.
func TestStreamRowsOnly(t *testing.T) {
	const m, n, nb = 120, 40, 16
	a := RandomDense(m, n, 11)
	f, err := Factor(a, Options{TileSize: nb, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamOf[float64](n, Options{TileSize: nb, InnerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r0 := 0; r0 < m; r0 += 30 {
		if err := s.AppendRows(rowsOf(a, r0, 30)); err != nil {
			t.Fatal(err)
		}
	}
	sR, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxUpperDiffSigned(sR, f.R(), n); d > 1e-12 {
		t.Fatalf("rows-only stream R differs by %.3e", d)
	}
	if resid, err := s.ResidualNorm(); err != nil || resid != 0 {
		t.Fatalf("rows-only stream should report zero residual, got (%v, %v)", resid, err)
	}
}

// TestStreamRaggedBatchHeights feeds streams batches of every height around
// the tiles a batch is staged in — one row, nb ± 1, 2·nb ± 1 around the
// staged height 2·nb, and 5·nb + 3 (two full staged tiles and a ragged
// third) — in all four precisions, with 0, 1 and 3 right-hand sides, on an
// accrete-only stream, a sliding window and a retaining stream cut by
// DowndateRows. One more shape, a complex one-tile-column triangle wider
// than ib (n = nb = 64, ib = 16) fed 4·nb-row batches, runs TSQRT's own
// trailing updates on the staged 2·nb-row tiles at a width where the
// packed form needs the scratch stretched to that height. Each is held to
// the rows it represents: RᴴR to AᴴA, and with a right-hand side the
// least-squares solution and the residual norm to a one-shot
// factorization's, each within 16·ε·m (m the represented rows, ε T's unit
// roundoff; x relative to ‖x‖ + 1). The scale rows stream the rows times
// 1e150 and 1e160, where squaring an entry of b overflows, and hold R and
// the residual norm divided by the scale to the same bounds.
func TestStreamRaggedBatchHeights(t *testing.T) {
	type prec struct {
		name string
		run  func(t *testing.T, sh raggedShape, window int, downdate bool, r, nrhs int, scale float64)
	}
	precs := []prec{{"d", raggedAgree[float64]}, {"z", raggedAgree[complex128]}, {"s", raggedAgree[float32]}, {"c", raggedAgree[complex64]}}
	const nb = 8
	shapes := []struct {
		sh     raggedShape
		rs     []int
		precs  []prec
		scales []float64 // nil: the rows as drawn, no scale in the name
	}{
		{raggedShape{20, nb, 4}, []int{1, nb - 1, nb, nb + 1, 2*nb - 1, 2 * nb, 2*nb + 1, 5*nb + 3}, precs, nil},
		{raggedShape{64, 64, 16}, []int{4 * 64}, precs[1:2], nil},
		{raggedShape{24, nb, 4}, []int{2*nb + 1}, precs[:2], []float64{1, 1e150, 1e160}},
	}
	streams := []struct {
		name     string
		window   func(n int) int
		downdate bool
	}{
		{"accrete", func(int) int { return 0 }, false},
		{"window", func(n int) int { return 9 * n / 4 }, false}, // 45 rows at n = 20
		{"downdate", func(int) int { return RetainAll }, true},
	}
	for _, sh := range shapes {
		for _, st := range streams {
			for _, nrhs := range []int{0, 1, 3} {
				for _, r := range sh.rs {
					for _, p := range sh.precs {
						name := fmt.Sprintf("n=%d/%s/nrhs=%d/r=%d/%s", sh.sh.n, st.name, nrhs, r, p.name)
						if sh.scales == nil {
							t.Run(name, func(t *testing.T) { p.run(t, sh.sh, st.window(sh.sh.n), st.downdate, r, nrhs, 1) })
						}
						for _, scale := range sh.scales {
							t.Run(fmt.Sprintf("%s/scale=%g", name, scale), func(t *testing.T) {
								p.run(t, sh.sh, st.window(sh.sh.n), st.downdate, r, nrhs, scale)
							})
						}
					}
				}
			}
		}
	}
}

// raggedShape is a stream's width, tile size and inner block.
type raggedShape struct{ n, nb, ib int }

// raggedAgree appends whole r-row batches, at least 3n rows in all, each
// times scale, to a stream (window rows retained; downdate drops the
// oldest third after) and checks it, scaled back, against the rows it
// represents.
func raggedAgree[T Scalar](t *testing.T, sh raggedShape, window int, downdate bool, r, nrhs int, scale float64) {
	n, nb, ib := sh.n, sh.nb, sh.ib
	m := (3*n + r - 1) / r * r
	a := RandomMat[T](m, n, int64(r))
	var b *Mat[T]
	if nrhs > 0 {
		b = RandomMat[T](m, nrhs, int64(100+r))
	}
	s, err := NewStreamOf[T](n, Options{TileSize: nb, InnerBlock: ib, Workers: 2, WindowRows: window})
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(m *Mat[T], r0 int) *Mat[T] {
		out := rowsOfG(m, r0, r)
		for i := range out.Data {
			out.Data[i] *= vec.FromParts[T](scale, 0)
		}
		return out
	}
	for r0 := 0; r0 < m; r0 += r {
		if b == nil {
			err = s.AppendRows(scaled(a, r0))
		} else {
			err = s.AppendRHS(scaled(a, r0), scaled(b, r0))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	lo := 0
	switch {
	case downdate:
		lo = m / 3
		if err := s.DowndateRows(lo); err != nil {
			t.Fatal(err)
		}
	case window > 0:
		lo = max(0, m-window)
	}
	rows := m - lo
	if s.Rows() != int64(rows) {
		t.Fatalf("stream represents %d rows, want %d", s.Rows(), rows)
	}
	eps := 0x1p-53
	if vec.Prec[T]()%2 == 0 { // float32, complex64
		eps = 0x1p-24
	}
	tol := 16 * eps * float64(rows)
	aLive := rowsOfG(a, lo, rows)

	// ‖RᴴR − AᴴA‖_F against ‖A‖_F², the factor's backward error.
	rs, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs.Data {
		rs.Data[i] /= vec.FromParts[T](scale, 0)
	}
	var diff, norm2 float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var rr, aa T
			for k := 0; k <= min(i, j); k++ {
				rr += vec.Conj(rs.At(k, i)) * rs.At(k, j)
			}
			for k := 0; k < rows; k++ {
				aa += vec.Conj(aLive.At(k, i)) * aLive.At(k, j)
			}
			diff += vec.Abs2(rr - aa)
		}
		for k := 0; k < rows; k++ {
			norm2 += vec.Abs2(aLive.At(k, i))
		}
	}
	if g := math.Sqrt(diff) / norm2; g > tol {
		t.Errorf("‖RᴴR − AᴴA‖/‖A‖² = %.3e over %d rows (tol %.1e)", g, rows, tol)
	}
	if b == nil {
		return
	}

	bLive := rowsOfG(b, lo, rows)
	f, err := FactorOf(nil, aLive, Options{TileSize: nb, InnerBlock: ib, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	xRef, err := f.SolveLS(bLive)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.SolveLS()
	if err != nil {
		t.Fatal(err)
	}
	var xNorm float64
	for i := 0; i < n; i++ {
		for j := 0; j < nrhs; j++ {
			xNorm = math.Max(xNorm, vec.Abs(xRef.At(i, j)))
		}
	}
	if d := maxDiffG(x, xRef); d > tol*(1+xNorm) {
		t.Errorf("x differs from the one-shot solution by %.3e (tol %.1e)", d, tol*(1+xNorm))
	}
	resid, err := s.ResidualNorm()
	if err != nil {
		t.Fatal(err)
	}
	resid /= scale
	ax := tile.Mul((*tile.Dense[T])(aLive), (*tile.Dense[T])(xRef))
	var direct float64
	for i := 0; i < rows; i++ {
		for j := 0; j < nrhs; j++ {
			direct += vec.Abs2(ax.At(i, j) - bLive.At(i, j))
		}
	}
	direct = math.Sqrt(direct)
	if math.Abs(resid-direct) > tol*(1+direct) {
		t.Errorf("residual norm %.9e, direct %.9e (tol %.1e)", resid, direct, tol*(1+direct))
	}
}
