package core

import "fmt"

// Algorithm enumerates the tiled QR elimination-tree algorithms studied in
// the paper.
type Algorithm int

const (
	// FlatTree is Sameh-Kuck [15]: the diagonal row eliminates everything
	// in its column. Best for square matrices; PLASMA's historical default.
	FlatTree Algorithm = iota
	// BinaryTree pairs rows level by level; best for a single tile column.
	BinaryTree
	// Fibonacci is the Fibonacci scheme of order 1 [13], asymptotically
	// optimal for p = q²·f(q) with lim f = 0 (Theorem 1).
	Fibonacci
	// Greedy eliminates as many tiles as possible per column per step
	// [6, 7]; asymptotically optimal for log₂p = q·f(q) (Theorem 1).
	Greedy
	// Asap starts eliminations as soon as two rows are ready in the tiled
	// model (§3.2). Not optimal, but beats Greedy on some shapes (15×2).
	Asap
	// Grasap runs Greedy on the first q−k columns and Asap on the last k
	// (§3.2); k is Options.GrasapK.
	Grasap
	// PlasmaTree is the domain-based tree of Hadri et al. [10, 11] with
	// PLASMA's anchoring: flat trees on domains of Options.BS consecutive
	// rows starting at the diagonal, merged by a binary tree (the bottom
	// domain shrinks across columns).
	PlasmaTree
	// HadriTree is the Semi-/Fully-Parallel anchoring of [10]: domains are
	// fixed from row 1 and the TOP domain shrinks across columns. The
	// paper (§4) reports PLASMA's anchoring performs identically or
	// better.
	HadriTree
)

func (a Algorithm) String() string {
	switch a {
	case FlatTree:
		return "FlatTree"
	case BinaryTree:
		return "BinaryTree"
	case Fibonacci:
		return "Fibonacci"
	case Greedy:
		return "Greedy"
	case Asap:
		return "Asap"
	case Grasap:
		return "Grasap"
	case PlasmaTree:
		return "PlasmaTree"
	case HadriTree:
		return "HadriTree"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options carries the per-algorithm tuning parameters.
type Options struct {
	BS      int // PlasmaTree domain size (1..p); the paper sweeps this
	GrasapK int // Grasap: number of trailing Asap columns
}

// Generate returns the elimination list of the chosen algorithm for a p×q
// tile matrix.
func Generate(alg Algorithm, p, q int, opt Options) (List, error) {
	if p < 1 || q < 1 {
		return List{}, fmt.Errorf("core: invalid tile grid %d×%d", p, q)
	}
	switch alg {
	case FlatTree:
		return FlatTreeList(p, q), nil
	case BinaryTree:
		return BinaryTreeList(p, q), nil
	case Fibonacci:
		return FibonacciList(p, q), nil
	case Greedy:
		return GreedyList(p, q), nil
	case Asap:
		l, _, _ := AsapList(p, q)
		return l, nil
	case Grasap:
		l, _, _ := GrasapList(p, q, opt.GrasapK)
		return l, nil
	case PlasmaTree:
		bs := opt.BS
		if bs < 1 {
			return List{}, fmt.Errorf("core: PlasmaTree requires a domain size BS ≥ 1 (got %d)", bs)
		}
		return PlasmaTreeList(p, q, bs), nil
	case HadriTree:
		bs := opt.BS
		if bs < 1 {
			return List{}, fmt.Errorf("core: HadriTree requires a domain size BS ≥ 1 (got %d)", bs)
		}
		return HadriTreeList(p, q, bs), nil
	}
	return List{}, fmt.Errorf("core: unknown algorithm %v", alg)
}

// Algorithms lists every algorithm with a parameter-free list generator
// (PlasmaTree and Grasap need Options).
var Algorithms = []Algorithm{FlatTree, BinaryTree, Fibonacci, Greedy, Asap}
