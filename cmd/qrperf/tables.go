package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"tiledqr"
	"tiledqr/internal/core"
	"tiledqr/internal/exhaustive"
	"tiledqr/internal/sim"
)

// tableGrasap reports the best Grasap k for a grid of shapes — the paper's open
// question "determine the best value of k as a function of p and q".
func tableGrasap() {
	fmt.Println("\nExtension: best Grasap(k) (sweep over k; Grasap(0)=Greedy, Grasap(q)=Asap)")
	w := tabwriter.NewWriter(os.Stdout, 6, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "p\tq\tGreedy\tAsap\tbest k\tGrasap(k)\tgain vs Greedy\t")
	for _, s := range [][2]int{{15, 2}, {15, 3}, {15, 6}, {30, 4}, {40, 6}, {40, 10}, {40, 40}, {64, 8}} {
		p, q := s[0], s[1]
		_, greedy := core.StaticListTimes(core.GreedyList(p, q))
		_, _, asap := core.AsapList(p, q)
		bestK, bestCP := tiledqr.BestGrasapK(p, q)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%.3f%%\t\n",
			p, q, greedy, asap, bestK, bestCP, 100*(1-float64(bestCP)/float64(greedy)))
	}
	w.Flush()
}

// tableBanded reruns the paper's Theorem 1(3) sanity-check program: the
// exhaustively optimal critical path for a q×q matrix with three non-zero
// sub-diagonals, compared against the claimed 22q−30.
func tableBanded() {
	fmt.Println("\nExtension: exhaustive optimum, q×q banded (3 sub-diagonals) vs the paper's 22q−30")
	w := tabwriter.NewWriter(os.Stdout, 6, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "q\toptimal\t22q−30\tper-column increment\t")
	prev := 0
	for q := 2; q <= 8; q++ {
		s := exhaustive.New(q, q, 3)
		cp := s.OptimalCP()
		inc := "-"
		if prev > 0 {
			inc = fmt.Sprintf("%d", cp-prev)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t\n", q, cp, 22*q-30, inc)
		prev = cp
	}
	w.Flush()
	fmt.Println("agreement at q=4,5; from q=6 the optimum needs only 16 units per column (see README.md, \"Where this reproduction departs from the paper\")")
}

func printStepTable(title string, p, qmin int, cols []string, value func(alg int, i, k int) int) {
	fmt.Printf("\n%s\n", title)
	w := tabwriter.NewWriter(os.Stdout, 3, 0, 1, ' ', tabwriter.AlignRight)
	for i := 2; i <= p; i++ {
		for a := range cols {
			for k := 1; k <= min(i-1, qmin); k++ {
				fmt.Fprintf(w, "%d\t", value(a, i, k))
			}
			fmt.Fprint(w, "  |\t")
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Print("columns: ")
	for i, c := range cols {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(c)
	}
	fmt.Println()
}

func table2() {
	const p, q = 15, 6
	sk, _ := core.CoarseSchedule(core.FlatTreeList(p, q))
	gr, _ := core.CoarseSchedule(core.GreedyList(p, q))
	printStepTable("Table 2: coarse-grain time-steps (15×6)", p, q,
		[]string{"Sameh-Kuck", "Fibonacci", "Greedy"},
		func(a, i, k int) int {
			switch a {
			case 0:
				return sk[i-1][k-1]
			case 1:
				return core.FibonacciCoarseStep(p, i, k)
			default:
				return gr[i-1][k-1]
			}
		})
}

func tiledZero(list core.List) [][]int {
	return sim.ASAP(core.BuildDAG(list, core.TT)).ZeroTimes()
}

func table3() {
	const p, q = 15, 6
	tables := [][][]int{
		tiledZero(core.FlatTreeList(p, q)),
		tiledZero(core.FibonacciList(p, q)),
		tiledZero(core.GreedyList(p, q)),
		tiledZero(core.BinaryTreeList(p, q)),
		tiledZero(core.PlasmaTreeList(p, q, 5)),
	}
	printStepTable("Table 3: tiled time-steps, TT kernels (15×6)", p, q,
		[]string{"FlatTree", "Fibonacci", "Greedy", "BinaryTree", "PlasmaTree(BS=5)"},
		func(a, i, k int) int { return tables[a][i-1][k-1] })
}

func table4a() {
	const p, q = 15, 3
	greedy, _ := core.StaticListTimes(core.GreedyList(p, q))
	_, asap, _ := core.AsapList(p, q)
	_, grasap, _ := core.GrasapList(p, q, 1)
	tables := [][][]int{greedy, asap, grasap}
	printStepTable("Table 4(a): Greedy vs Asap vs Grasap(1) tiled time-steps (15×3)", p, q,
		[]string{"Greedy", "Asap", "Grasap(1)"},
		func(a, i, k int) int { return tables[a][i-1][k-1] })
}

func table4b() {
	fmt.Println("\nTable 4(b): critical paths, Greedy vs Asap")
	w := tabwriter.NewWriter(os.Stdout, 6, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "p\tq\tGreedy\tAsap\t")
	for _, p := range []int{16, 32, 64, 128} {
		for _, q := range []int{16, 32, 64, 128} {
			if q > p {
				continue
			}
			g := sim.CriticalPathList(core.GreedyList(p, q), core.TT)
			_, _, a := core.AsapList(p, q)
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t\n", p, q, g, a)
		}
	}
	w.Flush()
}

func table5() {
	const p = 40
	fmt.Println("\nTable 5: theoretical critical paths, p=40 (TT kernels)")
	w := tabwriter.NewWriter(os.Stdout, 6, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "p\tq\tGreedy\tPlasmaTree\tBS\toverhead\tgain\tFibonacci\toverhead\tgain\t")
	for q := 1; q <= p; q++ {
		g := sim.CriticalPathList(core.GreedyList(p, q), core.TT)
		bs, pt := sim.BestPlasmaBS(p, q, core.TT)
		fib := sim.CriticalPathList(core.FibonacciList(p, q), core.TT)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%d\t%.4f\t%.4f\t\n",
			p, q, g, pt, bs,
			float64(pt)/float64(g), 1-float64(g)/float64(pt),
			fib, float64(fib)/float64(g), 1-float64(g)/float64(fib))
	}
	w.Flush()
}
