package tile

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridDimensions(t *testing.T) {
	cases := []struct {
		m, n, nb         int
		p, q             int
		lastRow, lastCol int
	}{
		{8000, 8000, 200, 40, 40, 200, 200},
		{15, 6, 1, 15, 6, 1, 1},
		{250, 130, 100, 3, 2, 50, 30},
		{100, 100, 100, 1, 1, 100, 100},
		{101, 99, 100, 2, 1, 1, 99},
	}
	for _, c := range cases {
		g := NewGrid(c.m, c.n, c.nb)
		if g.P != c.p || g.Q != c.q {
			t.Errorf("NewGrid(%d,%d,%d): got %dx%d tiles, want %dx%d", c.m, c.n, c.nb, g.P, g.Q, c.p, c.q)
		}
		if got := g.TileRows(g.P - 1); got != c.lastRow {
			t.Errorf("NewGrid(%d,%d,%d): last tile row height %d, want %d", c.m, c.n, c.nb, got, c.lastRow)
		}
		if got := g.TileCols(g.Q - 1); got != c.lastCol {
			t.Errorf("NewGrid(%d,%d,%d): last tile col width %d, want %d", c.m, c.n, c.nb, got, c.lastCol)
		}
	}
}

func TestGridRowColSums(t *testing.T) {
	g := NewGrid(257, 101, 48)
	sumR := 0
	for i := 0; i < g.P; i++ {
		sumR += g.TileRows(i)
	}
	if sumR != g.M {
		t.Errorf("tile rows sum to %d, want %d", sumR, g.M)
	}
	sumC := 0
	for j := 0; j < g.Q; j++ {
		sumC += g.TileCols(j)
	}
	if sumC != g.N {
		t.Errorf("tile cols sum to %d, want %d", sumC, g.N)
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	for _, dims := range [][3]int{{7, 5, 3}, {64, 64, 16}, {100, 37, 24}, {5, 9, 4}} {
		a := RandDense[float64](dims[0], dims[1], 42)
		back := FromDense(a, dims[2]).ToDense()
		if MaxAbsDiff(a, back) != 0 {
			t.Errorf("round trip %v: matrices differ", dims)
		}
	}
}

func TestZFromDenseToDenseRoundTrip(t *testing.T) {
	a := RandDense[complex128](33, 21, 7)
	back := FromDense(a, 8).ToDense()
	if MaxAbsDiff(a, back) != 0 {
		t.Error("complex round trip: matrices differ")
	}
}

func TestMulIdentity(t *testing.T) {
	a := RandDense[float64](6, 6, 1)
	if MaxAbsDiff(Mul(a, Identity[float64](6)), a) != 0 {
		t.Error("A·I != A")
	}
	if MaxAbsDiff(Mul(Identity[float64](6), a), a) != 0 {
		t.Error("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDense[float64](2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense[float64](3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Mul result %v, want %v", c.Data, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		a := RandDense[float64](5, 8, seed)
		return MaxAbsDiff(Transpose(Transpose(a)), a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrobNorm(t *testing.T) {
	a := NewDense[float64](2, 2)
	copy(a.Data, []float64{3, 4, 0, 0})
	if got := FrobNorm(a); math.Abs(got-5) > 1e-15 {
		t.Errorf("FrobNorm = %v, want 5", got)
	}
}

func TestZMulConjTranspose(t *testing.T) {
	a := RandDense[complex128](4, 3, 3)
	aha := Mul(ConjTranspose(a), a)
	// AᴴA must be Hermitian with real non-negative diagonal.
	for i := 0; i < 3; i++ {
		if math.Abs(imag(aha.At(i, i))) > 1e-12 {
			t.Errorf("diagonal (%d,%d) not real: %v", i, i, aha.At(i, i))
		}
		if real(aha.At(i, i)) < 0 {
			t.Errorf("diagonal (%d,%d) negative: %v", i, i, aha.At(i, i))
		}
		for j := 0; j < 3; j++ {
			d := aha.At(i, j) - complex(real(aha.At(j, i)), -imag(aha.At(j, i)))
			if math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Errorf("not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	a := NewDense[float64](4, 4)
	v := a.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if a.At(1, 1) != 9 {
		t.Error("view does not share storage")
	}
	if v.At(1, 1) != a.At(2, 2) {
		t.Error("view indexing wrong")
	}
}

func TestOrthoResidualIdentity(t *testing.T) {
	if r := OrthoResidual(Identity[float64](7)); r != 0 {
		t.Errorf("OrthoResidual(I) = %v, want 0", r)
	}
	if r := OrthoResidual(Identity[complex128](7)); r != 0 {
		t.Errorf("OrthoResidual(I) = %v, want 0", r)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := RandDense[float64](5, 5, 99)
	b := RandDense[float64](5, 5, 99)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("RandDense not deterministic for equal seeds")
	}
}

func TestZMatrixRoundTripAndClone(t *testing.T) {
	a := RandDense[complex128](25, 17, 5)
	m := FromDense(a, 8)
	c := m.Clone()
	// Mutating the clone must not affect the original.
	c.Tile(0, 0).Set(0, 0, 99)
	if m.Tile(0, 0).At(0, 0) == 99 {
		t.Error("ZMatrix.Clone shares tile storage")
	}
	if MaxAbsDiff(m.ToDense(), a) != 0 {
		t.Error("ZMatrix round trip differs")
	}
}

func TestMatrixClone(t *testing.T) {
	a := RandDense[float64](10, 10, 6)
	m := FromDense(a, 4)
	c := m.Clone()
	c.Tile(1, 1).Set(0, 0, 42)
	if m.Tile(1, 1).At(0, 0) == 42 {
		t.Error("Matrix.Clone shares tile storage")
	}
	if MaxAbsDiff(c.ToDense(), a) == 0 {
		t.Error("clone mutation did not take effect")
	}
}

func TestZViewSharesStorage(t *testing.T) {
	a := NewDense[complex128](4, 4)
	v := a.View(1, 1, 2, 2)
	v.Set(0, 0, 9i)
	if a.At(1, 1) != 9i {
		t.Error("ZDense view does not share storage")
	}
}

func TestMinPQ(t *testing.T) {
	if NewGrid(30, 10, 5).MinPQ() != 2 {
		t.Error("MinPQ wrong for tall grid")
	}
	if NewGrid(10, 30, 5).MinPQ() != 2 {
		t.Error("MinPQ wrong for wide grid")
	}
}

func TestZResidualHelpers(t *testing.T) {
	q := Identity[complex128](4)
	r := RandDense[complex128](4, 4, 8)
	if res := ResidualQR(r, q, r); res != 0 {
		t.Errorf("ResidualQR(A, I, A) = %g, want 0", res)
	}
	zero := NewDense[complex128](3, 3)
	if res := ResidualQR(zero, Identity[complex128](3), zero); res != 0 {
		t.Errorf("zero-matrix residual %g", res)
	}
	zeroR := NewDense[float64](3, 3)
	if res := ResidualQR(zeroR, Identity[float64](3), zeroR); res != 0 {
		t.Errorf("real zero-matrix residual %g", res)
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range view did not panic")
		}
	}()
	NewDense[float64](3, 3).View(1, 1, 3, 3)
}

func TestGridPanicsOnBadTileIndex(t *testing.T) {
	g := NewGrid(10, 10, 4)
	for _, f := range []func(){
		func() { g.TileRows(-1) },
		func() { g.TileRows(g.P) },
		func() { g.TileCols(-1) },
		func() { g.TileCols(g.Q) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad tile index did not panic")
				}
			}()
			f()
		}()
	}
}

// TestFactorGridRule pins the row height tile.FactorGrid picks from the
// shape alone: c = 4 on a 16384×128 panel at nb = 128, c = 2 on 2560×256
// and 2560×128 at nb = 64, and the square grid wherever fewer than
// minTallRows rows of 2·nb would remain below the top q (256×128 at
// nb = 32, 1024×128 and 512×128 at nb = 128) and on wide matrices.
func TestFactorGridRule(t *testing.T) {
	for _, c := range []struct {
		m, n, nb int
		mb, p    int
	}{
		{16384, 128, 128, 512, 33},
		{2560, 256, 64, 128, 22},
		{2560, 128, 64, 128, 21},
		{256, 128, 32, 32, 8},
		{1024, 128, 128, 128, 8},
		{512, 128, 128, 128, 4},
		{200, 800, 8, 8, 25},
		{32*(1+29) + 1, 32, 32, 32, 31},  // 30 rows below q: 15 of 2·nb are too few
		{32*(1+30) + 1, 32, 32, 64, 17},  // 31 rows below q: 16 of 2·nb, the last ragged
		{32*(1+60) + 1, 32, 32, 128, 17}, // 61 rows below q: 16 of 4·nb, the last ragged
	} {
		g := FactorGrid(c.m, c.n, c.nb)
		if g.MB != c.mb || g.P != c.p {
			t.Errorf("FactorGrid(%d,%d,%d): %d tile rows, MB=%d; want %d, MB=%d", c.m, c.n, c.nb, g.P, g.MB, c.p, c.mb)
		}
		if c.mb == c.nb && g != NewGrid(c.m, c.n, c.nb) {
			t.Errorf("FactorGrid(%d,%d,%d) = %+v, want the square grid", c.m, c.n, c.nb, g)
		}
	}
}

// TestTallGridRows: the top Top tile rows are NB tall, the rest MB tall
// but the ragged last, RowStart is their running sum, and a tall tiled
// matrix round-trips a dense one exactly.
func TestTallGridRows(t *testing.T) {
	for _, c := range []struct{ m, n, nb, mb, top int }{
		{100, 20, 8, 16, 3}, {101, 20, 8, 32, 3}, {24, 20, 8, 32, 3}, {20, 20, 8, 32, 3}, {50, 7, 4, 12, 0},
	} {
		g := NewTallGrid(c.m, c.n, c.nb, c.mb, c.top)
		start := 0
		for i := 0; i < g.P; i++ {
			if g.RowStart(i) != start {
				t.Fatalf("%+v: tile row %d starts at %d, want %d", g, i, g.RowStart(i), start)
			}
			want := c.nb
			if i >= g.Top {
				want = c.mb
			}
			if h := g.TileRows(i); h != want && (i != g.P-1 || h > want || h < 1) {
				t.Fatalf("%+v: tile row %d is %d tall, want %d", g, i, h, want)
			}
			start += g.TileRows(i)
		}
		if start != c.m || g.RowStart(g.P) != c.m {
			t.Fatalf("%+v: tile rows cover %d rows, want %d", g, start, c.m)
		}
		a := RandDense[float64](c.m, c.n, 3)
		m := NewMatrix[float64](g)
		m.CopyFrom(a)
		if MaxAbsDiff(a, m.ToDense()) != 0 {
			t.Errorf("%+v: tall round trip differs", g)
		}
	}
}
