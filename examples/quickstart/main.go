// Quickstart: factor a tall random matrix with the Greedy tiled QR
// algorithm, extract Q and R, and verify the factorization quality.
package main

import (
	"fmt"
	"log"

	"tiledqr"
)

func main() {
	const m, n = 600, 200

	// A tall-and-skinny matrix is where the paper's Greedy algorithm
	// shines: many tile rows per tile column mean deep reduction trees.
	a := tiledqr.RandomDense(m, n, 42)

	f, err := tiledqr.Factor(a, tiledqr.Options{
		Algorithm:  tiledqr.Greedy,
		Kernels:    tiledqr.TT,
		TileSize:   50, // p = 12 tile rows, q = 4 tile columns
		InnerBlock: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	p, q, nb := f.Grid()
	fmt.Printf("factored %d×%d as a %d×%d grid of %d×%d tiles (%d kernel tasks)\n",
		m, n, p, q, nb, nb, f.TaskCount())

	r := f.R()         // 200×200 upper triangular
	qthin := f.ThinQ() // 600×200, orthonormal columns

	fmt.Printf("‖A − QR‖/‖A‖  = %.2e\n", tiledqr.QRResidualOf(a, qthin, r))
	fmt.Printf("‖QᵀQ − I‖     = %.2e\n", tiledqr.OrthoResidualOf(qthin))

	// The algorithm's theoretical parallelism for this shape: critical path
	// in units of nb³/3 flops, versus the sequential total.
	cp, err := tiledqr.CriticalPath(tiledqr.Greedy, p, q, tiledqr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("critical path %d units; FlatTree would need ", cp)
	cpFlat, _ := tiledqr.CriticalPath(tiledqr.FlatTree, p, q, tiledqr.Options{})
	fmt.Printf("%d units (%.1f× longer)\n", cpFlat, float64(cpFlat)/float64(cp))
}
