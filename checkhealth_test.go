package tiledqr

import (
	"math"
	"strings"
	"testing"
)

// TestCheckHealthRejectsNonFiniteInput: with Options.CheckHealth, a matrix
// carrying a NaN or Inf is rejected before any kernel runs, in all four
// precisions; without it the happy path stays check-free (no error — the
// non-finite values simply propagate, as in LAPACK).
func TestCheckHealthRejectsNonFiniteInput(t *testing.T) {
	opt := Options{TileSize: 8, InnerBlock: 4, CheckHealth: true}
	wantSub := "non-finite"

	a := RandomDense(24, 16, 1)
	a.Set(9, 3, math.NaN())
	if _, err := Factor(a, opt); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Errorf("float64 NaN input: err = %v", err)
	}
	if _, err := Factor(a, Options{TileSize: 8, InnerBlock: 4}); err != nil {
		t.Errorf("without CheckHealth the NaN input must not error, got %v", err)
	}
	a.Set(9, 3, math.Inf(1))
	if _, err := Factor(a, opt); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Errorf("float64 Inf input: err = %v", err)
	}

	a32 := RandomMat[float32](24, 16, 1)
	a32.Set(0, 0, float32(math.NaN()))
	if _, err := FactorOf(nil, a32, opt); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Errorf("float32 NaN input: err = %v", err)
	}

	ac := RandomMat[complex64](24, 16, 1)
	ac.Set(5, 5, complex(1, float32(math.Inf(-1))))
	if _, err := FactorOf(nil, ac, opt); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Errorf("complex64 Inf imaginary part: err = %v", err)
	}

	az := RandomMat[complex128](24, 16, 1)
	az.Set(23, 15, complex(math.NaN(), 0))
	if _, err := FactorComplex(az, opt); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Errorf("complex128 NaN real part: err = %v", err)
	}
}

// TestCheckHealthHugeFiniteOK: overflow-safety of the finiteness scan —
// values whose |x|² overflows float64 are still finite and must pass.
func TestCheckHealthHugeFiniteOK(t *testing.T) {
	az := RandomMat[complex128](16, 8, 1)
	az.Set(3, 3, complex(1.5e300, -2.5e300)) // |x|² overflows, |x| does not
	if _, err := FactorComplex(az, Options{TileSize: 8, InnerBlock: 4, CheckHealth: true}); err != nil {
		t.Errorf("huge-but-finite entry rejected: %v", err)
	}
}

// TestCheckHealthPreservesValidState: a rejected input must leave a
// previously valid factorization untouched and serving — validation runs
// before any retained storage is overwritten.
func TestCheckHealthPreservesValidState(t *testing.T) {
	opt := Options{TileSize: 8, InnerBlock: 4, CheckHealth: true}
	good := RandomDense(24, 16, 1)
	f := &Factorization{}
	if err := FactorInto(f, good, opt); err != nil {
		t.Fatal(err)
	}
	want := f.R().Data

	bad := RandomDense(24, 16, 2)
	bad.Set(1, 1, math.NaN())
	if err := FactorInto(f, bad, opt); err == nil {
		t.Fatal("NaN input accepted")
	}
	if err := f.Err(); err != nil {
		t.Errorf("Err() = %v after a rejected input, want nil (state untouched)", err)
	}
	if !equalData(f.R().Data, want) {
		t.Error("rejected input corrupted the previous factorization")
	}
}

// TestCheckHealthStreamInput: stream appends validate the batch and the
// right-hand side before touching retained state — a rejected append
// leaves the stream healthy and a later good append works.
func TestCheckHealthStreamInput(t *testing.T) {
	n := 16
	opt := Options{TileSize: 8, InnerBlock: 4, CheckHealth: true}
	s, err := NewStreamOf[float64](n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRHS(RandomDense(8, n, 1), RandomDense(8, 1, 2)); err != nil {
		t.Fatal(err)
	}
	r1, err := s.R()
	if err != nil {
		t.Fatal(err)
	}

	bad := RandomDense(8, n, 3)
	bad.Set(4, 4, math.NaN())
	if err := s.AppendRHS(bad, RandomDense(8, 1, 4)); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN batch: err = %v", err)
	}
	badRHS := RandomDense(8, 1, 5)
	badRHS.Set(0, 0, math.Inf(1))
	if err := s.AppendRHS(RandomDense(8, n, 6), badRHS); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf right-hand side: err = %v", err)
	}

	if err := s.Err(); err != nil {
		t.Fatalf("Err() = %v after rejected appends, want a healthy stream", err)
	}
	r2, err := s.R()
	if err != nil {
		t.Fatal(err)
	}
	if !equalData(r1.Data, r2.Data) {
		t.Error("rejected appends mutated the resident triangle")
	}
	if err := s.AppendRHS(RandomDense(8, n, 7), RandomDense(8, 1, 8)); err != nil {
		t.Errorf("good append after rejected ones: %v", err)
	}
}
