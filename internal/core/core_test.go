package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// --- generic list validity ------------------------------------------------

var testShapes = [][2]int{
	{1, 1}, {2, 1}, {2, 2}, {4, 1}, {5, 3}, {6, 6}, {15, 2}, {15, 3},
	{15, 6}, {16, 16}, {40, 1}, {40, 7}, {31, 13}, {3, 5}, {7, 9},
}

func TestGeneratedListsAreValid(t *testing.T) {
	for _, s := range testShapes {
		p, q := s[0], s[1]
		for _, alg := range Algorithms {
			l, err := Generate(alg, p, q, Options{})
			if err != nil {
				t.Fatalf("%v %dx%d: %v", alg, p, q, err)
			}
			if err := l.Validate(false); err != nil {
				t.Errorf("%v %dx%d: %v", alg, p, q, err)
			}
		}
		for _, bs := range []int{1, 2, 3, 5, p} {
			l := PlasmaTreeList(p, q, bs)
			if err := l.Validate(false); err != nil {
				t.Errorf("PlasmaTree(BS=%d) %dx%d: %v", bs, p, q, err)
			}
		}
		for k := 0; k <= min(p, q); k++ {
			l, _, _ := GrasapList(p, q, k)
			if err := l.Validate(false); err != nil {
				t.Errorf("Grasap(%d) %dx%d: %v", k, p, q, err)
			}
		}
	}
}

func TestValidateRejectsBadLists(t *testing.T) {
	// Tile zeroed twice.
	l := List{P: 3, Q: 1, Elims: []Elim{{2, 1, 1}, {2, 1, 1}}}
	if l.Validate(false) == nil {
		t.Error("duplicate elimination accepted")
	}
	// Missing elimination.
	l = List{P: 3, Q: 1, Elims: []Elim{{2, 1, 1}}}
	if l.Validate(false) == nil {
		t.Error("incomplete list accepted")
	}
	// Pivot used after being zeroed.
	l = List{P: 3, Q: 1, Elims: []Elim{{2, 1, 1}, {3, 2, 1}}}
	if l.Validate(false) == nil {
		t.Error("zeroed pivot accepted")
	}
	// Row not ready: column 2 elimination before column 1 completes for row 3.
	l = List{P: 3, Q: 2, Elims: []Elim{{2, 1, 1}, {3, 2, 2}, {3, 1, 1}}}
	if l.Validate(false) == nil {
		t.Error("row-not-ready list accepted")
	}
	// Reverse elimination rejected unless allowed.
	l = List{P: 3, Q: 1, Elims: []Elim{{2, 3, 1}, {3, 1, 1}}}
	if l.Validate(false) == nil {
		t.Error("reverse elimination accepted with allowReverse=false")
	}
	if err := l.Validate(true); err != nil {
		t.Errorf("valid reverse list rejected: %v", err)
	}
}

// --- Table 2: coarse-grain time-steps for a 15×6 matrix --------------------

var table2SamehKuck = func() [][]int {
	// coarse(i,k) = i + k − 2 (§3.1).
	rows := make([][]int, 0, 14)
	for i := 2; i <= 15; i++ {
		row := make([]int, 0, 6)
		for k := 1; k <= min(i-1, 6); k++ {
			row = append(row, i+k-2)
		}
		rows = append(rows, row)
	}
	return rows
}()

var table2Fibonacci = [][]int{
	{5},
	{4, 7},
	{4, 6, 9},
	{3, 6, 8, 11},
	{3, 5, 8, 10, 13},
	{3, 5, 7, 10, 12, 15},
	{2, 5, 7, 9, 12, 14},
	{2, 4, 7, 9, 11, 14},
	{2, 4, 6, 9, 11, 13},
	{2, 4, 6, 8, 11, 13},
	{1, 4, 6, 8, 10, 13},
	{1, 3, 6, 8, 10, 12},
	{1, 3, 5, 8, 10, 12},
	{1, 3, 5, 7, 10, 12},
}

var table2Greedy = [][]int{
	{4},
	{3, 6},
	{3, 5, 8},
	{2, 5, 7, 10},
	{2, 4, 7, 9, 12},
	{2, 4, 6, 9, 11, 14},
	{2, 4, 6, 8, 10, 13},
	{1, 3, 5, 8, 10, 12},
	{1, 3, 5, 7, 9, 11},
	{1, 3, 5, 7, 9, 11},
	{1, 3, 4, 6, 8, 10},
	{1, 2, 4, 6, 8, 10},
	{1, 2, 4, 5, 7, 9},
	{1, 2, 3, 5, 6, 8},
}

func checkCoarseTable(t *testing.T, name string, l List, want [][]int) {
	t.Helper()
	steps, _ := CoarseSchedule(l)
	for i := 2; i <= l.P; i++ {
		for k := 1; k <= min(i-1, l.MinPQ()); k++ {
			got := steps[i-1][k-1]
			exp := want[i-2][k-1]
			if got != exp {
				t.Errorf("%s: coarse(%d,%d) = %d, paper says %d", name, i, k, got, exp)
			}
		}
	}
}

func TestTable2SamehKuck(t *testing.T) {
	checkCoarseTable(t, "Sameh-Kuck", FlatTreeList(15, 6), table2SamehKuck)
}

// Table 2(b) tabulates Fibonacci's *prescribed* timetable (the closed form
// of §3.1), which deliberately idles some eliminations for regularity: the
// ASAP execution of the same list can run a few steps ahead. The tiled
// algorithm keeps the list (the pairings) and executes ASAP (§3.2).
func TestTable2Fibonacci(t *testing.T) {
	for i := 2; i <= 15; i++ {
		for k := 1; k <= min(i-1, 6); k++ {
			if f := FibonacciCoarseStep(15, i, k); f != table2Fibonacci[i-2][k-1] {
				t.Errorf("FibonacciCoarseStep(15,%d,%d) = %d, paper says %d", i, k, f, table2Fibonacci[i-2][k-1])
			}
		}
	}
	// The ASAP coarse execution of the Fibonacci list can only be earlier
	// than the prescription, never later.
	steps, _ := CoarseSchedule(FibonacciList(15, 6))
	for i := 2; i <= 15; i++ {
		for k := 1; k <= min(i-1, 6); k++ {
			if steps[i-1][k-1] > table2Fibonacci[i-2][k-1] {
				t.Errorf("ASAP coarse(%d,%d) = %d exceeds prescription %d", i, k, steps[i-1][k-1], table2Fibonacci[i-2][k-1])
			}
		}
	}
}

func TestTable2Greedy(t *testing.T) {
	checkCoarseTable(t, "Greedy", GreedyList(15, 6), table2Greedy)
}

// TestCoarseCriticalPaths verifies the §3.1 formulas: Sameh-Kuck p+q−2
// (2q−3 if square), Fibonacci x+2q−2 (x+2q−4 if square) where x is the
// least integer with x(x+1)/2 ≥ p−1.
func TestCoarseCriticalPaths(t *testing.T) {
	for _, s := range [][2]int{{15, 6}, {20, 5}, {12, 12}, {40, 13}, {9, 9}, {30, 2}} {
		p, q := s[0], s[1]
		_, sk := CoarseSchedule(FlatTreeList(p, q))
		wantSK := p + q - 2
		if p == q {
			wantSK = 2*q - 3
		}
		if sk != wantSK {
			t.Errorf("Sameh-Kuck %dx%d coarse CP = %d, want %d", p, q, sk, wantSK)
		}
		x := 0
		for x*(x+1)/2 < p-1 {
			x++
		}
		// Fibonacci's prescribed critical path is the maximum of the closed
		// form over all sub-diagonal tiles.
		fib := 0
		for i := 2; i <= p; i++ {
			for k := 1; k <= min(i-1, q); k++ {
				if s := FibonacciCoarseStep(p, i, k); s > fib {
					fib = s
				}
			}
		}
		wantFib := x + 2*q - 2
		if p == q {
			wantFib = x + 2*q - 4
		}
		if fib != wantFib {
			t.Errorf("Fibonacci %dx%d coarse CP = %d, want %d", p, q, fib, wantFib)
		}
		// Greedy is optimal in the coarse model: it cannot lose to Fibonacci
		// or Sameh-Kuck.
		_, gr := CoarseSchedule(GreedyList(p, q))
		if gr > fib || gr > sk {
			t.Errorf("Greedy %dx%d coarse CP %d exceeds Fibonacci %d or Sameh-Kuck %d", p, q, gr, fib, sk)
		}
	}
}

// --- Greedy: recursion vs. the paper's literal Algorithm 4 -----------------

// TestGreedyMatchesAlgorithm4 shows the coarse-grain Greedy recursion and
// the paper's literal Algorithm 4 produce the same algorithm: identical
// per-column elimination sequences (pairings and order). The two generators
// interleave *columns* differently (Algorithm 4 sweeps j from q down to 1
// within each round), but eliminations in different columns of a valid list
// share no rows at conflicting positions, so the task DAGs — and therefore
// all schedules — are identical, which the critical-path check confirms.
func TestGreedyMatchesAlgorithm4(t *testing.T) {
	perColumn := func(l List) [][]Elim {
		out := make([][]Elim, l.MinPQ()+1)
		for _, e := range l.Elims {
			out[e.K] = append(out[e.K], e)
		}
		return out
	}
	for _, s := range [][2]int{{2, 1}, {5, 3}, {15, 2}, {15, 3}, {15, 6}, {16, 16}, {40, 40}, {40, 7}, {64, 16}, {33, 10}} {
		a := GreedyList(s[0], s[1])
		b := GreedyAlgorithm4List(s[0], s[1])
		if err := b.Validate(false); err != nil {
			t.Fatalf("%dx%d: Algorithm 4 list invalid: %v", s[0], s[1], err)
		}
		if !reflect.DeepEqual(perColumn(a), perColumn(b)) {
			t.Errorf("%dx%d: coarse-recursion Greedy and Algorithm 4 differ per column", s[0], s[1])
		}
		_, cpA := StaticListTimes(a)
		_, cpB := StaticListTimes(b)
		if cpA != cpB {
			t.Errorf("%dx%d: Greedy CP %d != Algorithm 4 CP %d", s[0], s[1], cpA, cpB)
		}
	}
}

// --- structural checks ------------------------------------------------------

func TestBinaryTreePairing(t *testing.T) {
	l := BinaryTreeList(15, 1)
	// First level zeroes even relative indices with the row directly above.
	want := map[int]int{2: 1, 4: 3, 6: 5, 8: 7, 10: 9, 12: 11, 14: 13,
		3: 1, 7: 5, 11: 9, 15: 13, 5: 1, 13: 9, 9: 1}
	for _, e := range l.Elims {
		if want[e.I] != e.Piv {
			t.Errorf("BinaryTree: elim(%d,%d,1), want pivot %d", e.I, e.Piv, want[e.I])
		}
	}
}

func TestPlasmaTreeDegenerateSizes(t *testing.T) {
	p, q := 12, 4
	if !reflect.DeepEqual(PlasmaTreeList(p, q, p).Elims, FlatTreeList(p, q).Elims) {
		t.Error("PlasmaTree(BS=p) must equal FlatTree")
	}
	if !reflect.DeepEqual(PlasmaTreeList(p, q, 1).Elims, BinaryTreeList(p, q).Elims) {
		t.Error("PlasmaTree(BS=1) must equal BinaryTree")
	}
}

func TestGrasapEndpoints(t *testing.T) {
	p, q := 15, 3
	// Grasap(0) executes the Greedy pairings.
	g0, _, cp0 := GrasapList(p, q, 0)
	if !sameElimSet(g0, GreedyList(p, q)) {
		t.Error("Grasap(0) pairings differ from Greedy")
	}
	_, cpG := StaticListTimes(GreedyList(p, q))
	if cp0 != cpG {
		t.Errorf("Grasap(0) CP %d != Greedy CP %d", cp0, cpG)
	}
	// Grasap(q) is Asap.
	gq, _, cpq := GrasapList(p, q, q)
	aq, _, cpa := AsapList(p, q)
	if !reflect.DeepEqual(gq.Elims, aq.Elims) || cpq != cpa {
		t.Error("Grasap(q) differs from Asap")
	}
}

func sameElimSet(a, b List) bool {
	if len(a.Elims) != len(b.Elims) {
		return false
	}
	set := make(map[Elim]bool, len(a.Elims))
	for _, e := range a.Elims {
		set[e] = true
	}
	for _, e := range b.Elims {
		if !set[e] {
			return false
		}
	}
	return true
}

// --- Lemma 1 ----------------------------------------------------------------

// randomValidList builds a random valid elimination list, possibly with
// reverse eliminations: per column, eliminatees and pivots are drawn
// uniformly from the surviving rows.
func randomValidList(p, q int, rng *rand.Rand) List {
	l := List{P: p, Q: q}
	for k := 1; k <= min(p, q); k++ {
		active := make([]int, 0, p-k+1)
		for r := k; r <= p; r++ {
			active = append(active, r)
		}
		for len(active) > 1 {
			// Choose any non-diagonal active row to eliminate.
			ei := 1 + rng.Intn(len(active)-1)
			i := active[ei]
			active = append(active[:ei], active[ei+1:]...)
			piv := active[rng.Intn(len(active))]
			l.Elims = append(l.Elims, Elim{I: i, Piv: piv, K: k})
		}
	}
	return l
}

func TestLemma1RemovesReverseEliminations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		p := 2 + rng.Intn(9)
		q := 1 + rng.Intn(p)
		l := randomValidList(p, q, rng)
		if err := l.Validate(true); err != nil {
			t.Fatalf("random list invalid: %v", err)
		}
		norm := l.NormalizeReverse()
		if norm.HasReverse() {
			t.Fatalf("iter %d: normalized list still has reverse eliminations", iter)
		}
		if err := norm.Validate(false); err != nil {
			t.Fatalf("iter %d: normalized list invalid: %v", iter, err)
		}
		// Lemma 1: the execution time is unchanged.
		_, cpBefore := StaticListTimes(l)
		_, cpAfter := StaticListTimes(norm)
		if cpBefore != cpAfter {
			t.Errorf("iter %d (%dx%d): CP changed %d → %d after normalization", iter, p, q, cpBefore, cpAfter)
		}
	}
}

// --- Table 4(a): Greedy vs Asap vs Grasap(1) on 15×3 ------------------------

var table4aGreedy = [][]int{
	{12},
	{10, 42},
	{10, 40, 64},
	{8, 36, 62},
	{8, 34, 56},
	{8, 34, 56},
	{8, 30, 52},
	{6, 28, 50},
	{6, 28, 50},
	{6, 28, 50},
	{6, 28, 44},
	{6, 22, 44},
	{6, 22, 44},
	{6, 22, 38},
}

var table4aAsap = [][]int{
	{12},
	{10, 40},
	{10, 36, 86},
	{8, 34, 80},
	{8, 32, 74},
	{8, 30, 68},
	{8, 28, 62},
	{6, 28, 56},
	{6, 26, 50},
	{6, 24, 46},
	{6, 24, 44},
	{6, 22, 44},
	{6, 22, 40},
	{6, 22, 38},
}

// Note on tile (7,3): the paper's table prints 56 (identical to row 6's
// line), but 56 is inconsistent with the Asap rule as evidenced elsewhere in
// the very same table: freed pivots re-pair immediately (e.g. tile (11,3) is
// zeroed at 46 in both the Asap and Grasap columns, which requires the two
// pivots freed at 44 to pair at once). Applying the same rule at t=50 pairs
// the freed pivots {6,7} and zeroes tile (7,3) at 52. Our engine reproduces
// every other cell of Table 4(a) — including the paper's headline claim that
// Grasap(1) finishes at 62 versus Greedy's 64 — so we record 52 here and
// document the single-cell deviation in README.md, "Where this reproduction
// departs from the paper".
var table4aGrasap1 = [][]int{
	{12},
	{10, 42},
	{10, 40, 62},
	{8, 36, 58},
	{8, 34, 56},
	{8, 34, 52},
	{8, 30, 50},
	{6, 28, 50},
	{6, 28, 48},
	{6, 28, 46},
	{6, 28, 44},
	{6, 22, 44},
	{6, 22, 40},
	{6, 22, 38},
}

func checkZeroTable(t *testing.T, name string, zero [][]int, want [][]int, p, qmin int) {
	t.Helper()
	for i := 2; i <= p; i++ {
		for k := 1; k <= min(i-1, qmin); k++ {
			if zero[i-1][k-1] != want[i-2][k-1] {
				t.Errorf("%s: tile (%d,%d) zeroed at %d, paper says %d", name, i, k, zero[i-1][k-1], want[i-2][k-1])
			}
		}
	}
}

func TestTable4aGreedy(t *testing.T) {
	zero, _ := StaticListTimes(GreedyList(15, 3))
	checkZeroTable(t, "Greedy 15×3", zero, table4aGreedy, 15, 3)
}

func TestTable4aAsap(t *testing.T) {
	_, zero, _ := AsapList(15, 3)
	checkZeroTable(t, "Asap 15×3", zero, table4aAsap, 15, 3)
}

func TestTable4aGrasap1(t *testing.T) {
	_, zero, _ := GrasapList(15, 3, 1)
	checkZeroTable(t, "Grasap(1) 15×3", zero, table4aGrasap1, 15, 3)
}

// TestAsapBeatsGreedyOn15x2 reproduces the §3.2 narrative: Asap beats Greedy
// for a 15×2 matrix, while Greedy beats Asap for 15×3, and Grasap(1) beats
// both on 15×3.
func TestAsapVsGreedyNarrative(t *testing.T) {
	_, _, asap2 := AsapList(15, 2)
	_, greedy2 := StaticListTimes(GreedyList(15, 2))
	if asap2 >= greedy2 {
		t.Errorf("15×2: Asap CP %d should beat Greedy CP %d", asap2, greedy2)
	}
	_, _, asap3 := AsapList(15, 3)
	_, greedy3 := StaticListTimes(GreedyList(15, 3))
	if greedy3 >= asap3 {
		t.Errorf("15×3: Greedy CP %d should beat Asap CP %d", greedy3, asap3)
	}
	_, _, grasap3 := GrasapList(15, 3, 1)
	if grasap3 != 62 || greedy3 != 64 {
		t.Errorf("15×3: Grasap(1) finishes at %d (want 62), Greedy at %d (want 64)", grasap3, greedy3)
	}
}

// --- weights ---------------------------------------------------------------

func TestKernelWeights(t *testing.T) {
	want := map[Kind]int{KGEQRT: 4, KUNMQR: 6, KTSQRT: 6, KTSMQR: 12, KTTQRT: 2, KTTMQR: 6}
	for k, w := range want {
		if k.Weight() != w {
			t.Errorf("%v weight %d, want %d", k, k.Weight(), w)
		}
	}
}

// TestTotalWeightInvariant verifies §2.2: the total weight of any valid
// tiled algorithm is 6pq²−2q³ units (p ≥ q), for both kernel families.
func TestTotalWeightInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][2]int{{6, 4}, {10, 10}, {15, 6}, {9, 2}} {
		p, q := s[0], s[1]
		want := 6*p*q*q - 2*q*q*q
		for _, alg := range Algorithms {
			l, _ := Generate(alg, p, q, Options{})
			for _, kern := range []Kernels{TT, TS} {
				if got := BuildDAG(l, kern).TotalWeight(); got != want {
					t.Errorf("%v(%v) %dx%d: total weight %d, want %d", alg, kern, p, q, got, want)
				}
			}
		}
		for iter := 0; iter < 5; iter++ {
			l := randomValidList(p, q, rng).NormalizeReverse()
			if got := BuildDAG(l, TT).TotalWeight(); got != want {
				t.Errorf("random list %dx%d: total weight %d, want %d", p, q, got, want)
			}
		}
	}
}
