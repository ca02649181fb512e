package tiledqr

import (
	"math"
	"testing"

	"tiledqr/internal/tile"
)

// The autotuning acceptance suite: AlgorithmAuto must resolve to a
// concrete, stable tuple; factoring with Auto must be bit-for-bit the
// factorization of the resolved options; and streams and every precision
// must accept Auto. What Auto picks is pinned, without a clock, by
// internal/tune's TestResolveGoldens; the measured envelope is
// `qrperf -tune -measure`'s.

func TestAutoResolveIsConcreteAndStable(t *testing.T) {
	auto := Options{Algorithm: AlgorithmAuto}
	r1, err := auto.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Algorithm == AlgorithmAuto {
		t.Fatal("Resolve left AlgorithmAuto unresolved")
	}
	if r1.TileSize < 1 || r1.InnerBlock < 1 || r1.InnerBlock > r1.TileSize {
		t.Fatalf("Resolve produced invalid sizes: %+v", r1)
	}
	r2, err := auto.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("Resolve not stable: %+v vs %+v", r1, r2)
	}

	// Pins survive resolution.
	pinned, err := Options{Algorithm: AlgorithmAuto, TileSize: 100, InnerBlock: 25}.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.TileSize != 100 || pinned.InnerBlock != 25 {
		t.Fatalf("pinned sizes not honored: %+v", pinned)
	}

	// Non-auto options just get defaults.
	fixed, err := Options{Algorithm: Fibonacci}.Resolve(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Algorithm != Fibonacci || fixed.TileSize != DefaultTileSize {
		t.Fatalf("non-auto Resolve changed the options: %+v", fixed)
	}

	// Invalid pins are rejected, same as explicit options.
	if _, err := (Options{Algorithm: AlgorithmAuto, TileSize: 16, InnerBlock: 32}).Resolve(300, 200); err == nil {
		t.Fatal("Resolve accepted InnerBlock > pinned TileSize")
	}
	if _, err := auto.Resolve(0, 5); err == nil {
		t.Fatal("Resolve accepted an empty shape")
	}
}

// TestAutoMatchesResolvedBitForBit is the core acceptance check: Factor
// with AlgorithmAuto and zero nb/ib is the same computation as Factor with
// the hand-picked resolved tuple — identical bits in R and in Qᵀb.
func TestAutoMatchesResolvedBitForBit(t *testing.T) {
	const m, n = 200, 120
	auto := Options{Algorithm: AlgorithmAuto}
	resolved, err := auto.Resolve(m, n)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomDense(m, n, 3)
	fa, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Factor(a, resolved)
	if err != nil {
		t.Fatal(err)
	}
	ra, rr := fa.R(), fr.R()
	for i := 0; i < ra.Rows; i++ {
		for j := 0; j < ra.Cols; j++ {
			if ra.At(i, j) != rr.At(i, j) {
				t.Fatalf("R differs at (%d,%d): auto %v vs resolved %v", i, j, ra.At(i, j), rr.At(i, j))
			}
		}
	}
	ba, br := RandomDense(m, 2, 9), RandomDense(m, 2, 9)
	if err := fa.ApplyQH(ba); err != nil {
		t.Fatal(err)
	}
	if err := fr.ApplyQH(br); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < 2; j++ {
			if ba.At(i, j) != br.At(i, j) {
				t.Fatalf("QᵀB differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestAutoFactorIntoReuses checks the serving path: repeated FactorInto
// with Auto resolves to the same tuple every time (the engine reuse key is
// the resolved tuple, so the arena/DAG/plan are reused) and keeps producing
// the same bits.
func TestAutoFactorIntoReuses(t *testing.T) {
	const m, n = 200, 120
	auto := Options{Algorithm: AlgorithmAuto}
	a := RandomDense(m, n, 3)
	ref, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	refR := ref.R()
	var f Factorization
	for round := 0; round < 3; round++ {
		if err := FactorInto(&f, a, auto); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		r := f.R()
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < r.Cols; j++ {
				if r.At(i, j) != refR.At(i, j) {
					t.Fatalf("round %d: R differs at (%d,%d)", round, i, j)
				}
			}
		}
	}
	// Refactor keeps serving the resolved configuration too.
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	if r := f.R(); r.At(0, 0) != refR.At(0, 0) {
		t.Fatal("Refactor after Auto diverged")
	}
}

// TestAutoAllPrecisions exercises Auto through every public entry point;
// the two 64-bit domains must agree on |R| for real-valued data (they may
// legitimately resolve different tuples — R is unique up to row signs).
func TestAutoAllPrecisions(t *testing.T) {
	const m, n = 96, 64
	auto := Options{Algorithm: AlgorithmAuto}
	a := RandomDense(m, n, 5)

	fd, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	za := NewMat[complex128](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			za.Set(i, j, complex(a.At(i, j), 0))
		}
	}
	fz, err := FactorComplex(za, auto)
	if err != nil {
		t.Fatal(err)
	}
	rd, rz := fd.R(), fz.R()
	for i := 0; i < rd.Rows; i++ {
		for j := 0; j < rd.Cols; j++ {
			if d := math.Abs(math.Abs(rd.At(i, j)) - real(complexAbs(rz.At(i, j)))); d > 1e-8 {
				t.Fatalf("|R| disagrees across domains at (%d,%d): %g", i, j, d)
			}
		}
	}

	s := NewMat[float32](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, float32(a.At(i, j)))
		}
	}
	if _, err := FactorOf(nil, s, auto); err != nil {
		t.Fatal(err)
	}
	c := NewMat[complex64](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, complex(float32(a.At(i, j)), 0))
		}
	}
	if _, err := FactorOf(nil, c, auto); err != nil {
		t.Fatal(err)
	}
}

func complexAbs(z complex128) complex128 {
	return complex(math.Hypot(real(z), imag(z)), 0)
}

// TestAutoStream checks streams pick a tile shape under Auto, merge batches
// flat with TS kernels, and still reproduce what a one-shot factorization
// of the same rows serves: R and Qᵀb up to row
// signs, the least-squares solution and the residual. The batches run from
// one row to several tile rows.
func TestAutoStream(t *testing.T) {
	const n, nrhs = 100, 2
	heights := []int{1, 37, 64, 150, 7, 200, 3}
	rows := 0
	for _, r := range heights {
		rows += r
	}
	auto := Options{Algorithm: AlgorithmAuto}
	st, err := NewStreamOf[float64](n, auto)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RandomDense(rows, n, 11), RandomDense(rows, nrhs, 12)
	view := func(m *Dense, lo, r int) *Dense {
		return (*Dense)((*tile.Dense[float64])(m).View(lo, 0, r, m.Cols))
	}
	for lo, x := 0, 0; x < len(heights); lo, x = lo+heights[x], x+1 {
		if err := st.AppendRHS(view(a, lo, heights[x]), view(b, lo, heights[x])); err != nil {
			t.Fatal(err)
		}
	}
	f, err := Factor(a, auto)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := st.R()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := st.QTB()
	if err != nil {
		t.Fatal(err)
	}
	rf, qf := f.R(), b.Clone()
	if err := f.ApplyQH(qf); err != nil {
		t.Fatal(err)
	}
	const tol = 1e-10
	for i := 0; i < n; i++ {
		sign := math.Copysign(1, rs.At(i, i)*rf.At(i, i))
		for j := i; j < n; j++ {
			if d := math.Abs(sign*rs.At(i, j) - rf.At(i, j)); d > tol {
				t.Fatalf("stream R disagrees with one-shot at (%d,%d): %g", i, j, d)
			}
		}
		for j := 0; j < nrhs; j++ {
			if d := math.Abs(sign*qs.At(i, j) - qf.At(i, j)); d > tol {
				t.Fatalf("stream Qᵀb disagrees with one-shot at (%d,%d): %g", i, j, d)
			}
		}
	}
	xs, err := st.SolveLS()
	if err != nil {
		t.Fatal(err)
	}
	xf, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < nrhs; j++ {
			if d := math.Abs(xs.At(i, j) - xf.At(i, j)); d > tol {
				t.Fatalf("stream LS solution disagrees with one-shot at (%d,%d): %g", i, j, d)
			}
		}
	}
	var direct float64 // ‖b − A·x‖_F over the rows Qᵀb leaves below the top n
	for i := n; i < rows; i++ {
		for j := 0; j < nrhs; j++ {
			direct += qf.At(i, j) * qf.At(i, j)
		}
	}
	if resid, err := st.ResidualNorm(); err != nil || math.Abs(resid-math.Sqrt(direct)) > tol*math.Sqrt(direct) {
		t.Fatalf("stream residual %g (err %v), one-shot %g", resid, err, math.Sqrt(direct))
	}
	if _, err := NewStreamOf[complex64](64, auto); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamOf[float32](64, auto); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamOf[complex128](64, auto); err != nil {
		t.Fatal(err)
	}
	// Invalid pins error under Auto exactly as they do with explicit
	// options — no silent clamping.
	if _, err := NewStreamOf[float64](64, Options{Algorithm: AlgorithmAuto, TileSize: 16, InnerBlock: 32}); err == nil {
		t.Error("NewStreamOf accepted InnerBlock > pinned TileSize under Auto")
	}
}

// TestAutoAnalysisGuards: the analysis API rejects the Auto placeholder
// with a descriptive error instead of a core-layer failure.
func TestAutoAnalysisGuards(t *testing.T) {
	if _, err := EliminationList(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("EliminationList accepted AlgorithmAuto")
	}
	if _, err := CriticalPath(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("CriticalPath accepted AlgorithmAuto")
	}
	if _, err := ZeroTimes(AlgorithmAuto, 4, 2, Options{}); err == nil {
		t.Error("ZeroTimes accepted AlgorithmAuto")
	}
	if _, err := SimulateWorkers(AlgorithmAuto, 4, 2, 2, Options{}); err == nil {
		t.Error("SimulateWorkers accepted AlgorithmAuto")
	}
	if AlgorithmAuto.String() != "Auto" {
		t.Errorf("AlgorithmAuto.String() = %q", AlgorithmAuto.String())
	}
}
