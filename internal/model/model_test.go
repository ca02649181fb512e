package model

import (
	"math"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/sim"
)

// TestTheorem1FlatTree checks the closed form of Theorem 1(1) against the
// discrete-event simulator over a grid of shapes.
func TestTheorem1FlatTree(t *testing.T) {
	for p := 1; p <= 24; p++ {
		for q := 1; q <= p; q++ {
			cp := sim.CriticalPathList(core.FlatTreeList(p, q), core.TT)
			if cp != FlatTreeCP(p, q) {
				t.Errorf("FlatTree %dx%d: sim %d, formula %d", p, q, cp, FlatTreeCP(p, q))
			}
		}
	}
	// Tall spot checks.
	for _, s := range [][2]int{{40, 1}, {40, 6}, {40, 40}, {100, 3}, {64, 64}} {
		cp := sim.CriticalPathList(core.FlatTreeList(s[0], s[1]), core.TT)
		if cp != FlatTreeCP(s[0], s[1]) {
			t.Errorf("FlatTree %dx%d: sim %d, formula %d", s[0], s[1], cp, FlatTreeCP(s[0], s[1]))
		}
	}
}

// TestProposition2 checks the TS-FlatTree closed form against the simulator.
func TestProposition2(t *testing.T) {
	for p := 1; p <= 20; p++ {
		for q := 1; q <= p; q++ {
			cp := sim.CriticalPathList(core.FlatTreeList(p, q), core.TS)
			if cp != TSFlatTreeCP(p, q) {
				t.Errorf("TS-FlatTree %dx%d: sim %d, formula %d", p, q, cp, TSFlatTreeCP(p, q))
			}
		}
	}
}

// TestProposition1 checks BinaryTree's exact critical path for powers of
// two with q < p.
func TestProposition1(t *testing.T) {
	for _, s := range [][2]int{{2, 1}, {4, 1}, {4, 2}, {8, 2}, {8, 4}, {16, 4}, {16, 8}, {32, 8}, {32, 16}, {64, 16}, {64, 32}} {
		p, q := s[0], s[1]
		cp := sim.CriticalPathList(core.BinaryTreeList(p, q), core.TT)
		if cp != BinaryTreeCPPow2(p, q) {
			t.Errorf("BinaryTree %dx%d: sim %d, formula %d", p, q, cp, BinaryTreeCPPow2(p, q))
		}
	}
}

// TestTheorem1Bounds checks the upper bounds on Fibonacci and Greedy and
// the lower bound 22q−30 across shapes and algorithms.
//
// Two documented caveats about the paper's constants (see README.md, "Where
// this reproduction departs from the paper"):
//
//   - Theorem 1(2)'s Greedy bound 22q+6⌈log₂p⌉ is contradicted by the
//     paper's own Table 4(b): Greedy on 128×64 has critical path 1452
//     (reproduced exactly by our simulator) while the bound gives 1450.
//     The slack needed is small and vanishes in the asymptotic statement,
//     so we allow a one-task (≤6 units) margin here and pin the 128×64
//     violation explicitly below.
//
//   - Theorem 1(3)'s lower bound 22q−30 is contradicted by the paper's own
//     Table 5 for square matrices: Greedy on 40×40 has critical path 826
//     (the paper's value) while 22·40−30 = 850. The bound's reduction to a
//     banded matrix loses the square corner savings, so we check it for
//     p ≥ 2q only (where it is comfortably true).
func TestTheorem1Bounds(t *testing.T) {
	shapes := [][2]int{{4, 2}, {8, 8}, {15, 6}, {20, 20}, {40, 10}, {40, 40}, {64, 16}, {100, 30}, {128, 64}}
	for _, s := range shapes {
		p, q := s[0], s[1]
		fib := sim.CriticalPathList(core.FibonacciList(p, q), core.TT)
		if fib > FibonacciCPUpper(p, q) {
			t.Errorf("Fibonacci %dx%d: CP %d exceeds bound %d", p, q, fib, FibonacciCPUpper(p, q))
		}
		gr := sim.CriticalPathList(core.GreedyList(p, q), core.TT)
		if gr > GreedyCPUpper(p, q)+6 {
			t.Errorf("Greedy %dx%d: CP %d exceeds bound %d by more than one task", p, q, gr, GreedyCPUpper(p, q))
		}
		if p >= 2*q {
			lb := LowerBoundCP(q)
			for _, alg := range core.Algorithms {
				list, _ := core.Generate(alg, p, q, core.Options{})
				if cp := sim.CriticalPathList(list, core.TT); cp < lb {
					t.Errorf("%v %dx%d: CP %d below lower bound %d", alg, p, q, cp, lb)
				}
			}
		}
	}
}

// TestPaperBoundInconsistencies pins the two spots where the paper's own
// tables contradict Theorem 1's constants, so that a future change in our
// generators that silently "fixes" them would be flagged.
func TestPaperBoundInconsistencies(t *testing.T) {
	// Table 4(b): Greedy 128×64 = 1452 > 1450 = Theorem 1(2) bound.
	gr := sim.CriticalPathList(core.GreedyList(128, 64), core.TT)
	if gr != 1452 || GreedyCPUpper(128, 64) != 1450 {
		t.Errorf("Greedy 128×64: CP %d (bound %d); expected the documented 1452 vs 1450", gr, GreedyCPUpper(128, 64))
	}
	// Table 5: Greedy 40×40 = 826 < 850 = Theorem 1(3) bound.
	gr = sim.CriticalPathList(core.GreedyList(40, 40), core.TT)
	if gr != 826 || LowerBoundCP(40) != 850 {
		t.Errorf("Greedy 40×40: CP %d (lower bound %d); expected the documented 826 vs 850", gr, LowerBoundCP(40))
	}
}

// TestAsymptoticOptimality illustrates Theorem 1(4,5): for p = λq the
// ratios CP/22q approach 1 as q grows.
func TestAsymptoticOptimality(t *testing.T) {
	ratio := func(alg core.Algorithm, q int) float64 {
		list, _ := core.Generate(alg, 2*q, q, core.Options{}) // λ = 2
		return float64(sim.CriticalPathList(list, core.TT)) / float64(22*q)
	}
	firstFib, lastFib := ratio(core.Fibonacci, 8), ratio(core.Fibonacci, 64)
	firstGr, lastGr := ratio(core.Greedy, 8), ratio(core.Greedy, 64)
	if lastFib > math.Max(firstFib, 1.10) || lastGr > math.Max(firstGr, 1.05) {
		t.Errorf("optimality ratios not approaching 1: fib %.3f→%.3f, greedy %.3f→%.3f",
			firstFib, lastFib, firstGr, lastGr)
	}
	if lastFib > 1.10 || lastGr > 1.05 {
		t.Errorf("ratios at q=64 too far from optimal: fib %.3f, greedy %.3f", lastFib, lastGr)
	}
}

func TestTotalUnitsMatchesFlops(t *testing.T) {
	// TotalUnits·nb³/3 must equal 2mn²−(2/3)n³ when m = p·nb, n = q·nb.
	for _, s := range [][2]int{{5, 3}, {40, 40}, {10, 1}} {
		p, q := s[0], s[1]
		nb := 17
		units := float64(TotalUnits(p, q)) * float64(nb*nb*nb) / 3
		flops := Flops(p*nb, q*nb)
		if math.Abs(units-flops) > 1e-6*flops {
			t.Errorf("%dx%d tiles: units→%.0f flops, formula %.0f", p, q, units, flops)
		}
	}
	if ComplexFlops(100, 50) != 4*Flops(100, 50) {
		t.Error("complex flop count must be 4× real")
	}
}

func TestPredictLimits(t *testing.T) {
	// With one worker the area bound dominates: γpred = γseq.
	if g := Predict(3.5, 1000, 100, 1); math.Abs(g-3.5) > 1e-12 {
		t.Errorf("P=1 prediction %g, want γseq", g)
	}
	// With unbounded workers the critical path dominates: γpred = γseq·T/cp.
	if g := Predict(2.0, 1000, 100, 1<<30); math.Abs(g-2.0*10) > 1e-9 {
		t.Errorf("unbounded prediction %g, want 20", g)
	}
	// Monotone in workers.
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16, 48, 100} {
		g := Predict(1, 4800, 300, p)
		if g < prev-1e-12 {
			t.Errorf("prediction decreased at P=%d", p)
		}
		prev = g
	}
	if s := Speedup(4800, 300, 48); s <= 0 || s > 1 {
		t.Errorf("speedup efficiency %g out of (0,1]", s)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 40: 6, 128: 7}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}
