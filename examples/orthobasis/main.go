// Orthonormal basis: the paper's second motivation. Block iterative methods
// orthogonalize a block of long vectors at every step; the Q factor of a
// tall-and-skinny QR gives that basis with unconditional stability.
//
// This example orthonormalizes a 3000×60 block (complex and real), compares
// every elimination tree's critical path for the resulting 30×... tile
// grid, and checks that the basis spans the original block.
package main

import (
	"fmt"
	"log"

	"tiledqr"
)

func main() {
	const (
		m, n = 3000, 60
		nb   = 100 // p = 30 tile rows, q = 1 tile column
	)

	// Real block.
	a := tiledqr.RandomDense(m, n, 1)
	f, err := tiledqr.Factor(a, tiledqr.Options{Algorithm: tiledqr.Greedy, TileSize: nb})
	if err != nil {
		log.Fatal(err)
	}
	qb := f.ThinQ()
	fmt.Printf("real    %d×%d block: ‖QᵀQ−I‖ = %.2e, ‖A−QR‖/‖A‖ = %.2e\n",
		m, n, tiledqr.OrthoResidualOf(qb), tiledqr.QRResidualOf(a, qb, f.R()))

	// Complex block (the paper reports double complex throughout: the
	// flop-to-byte ratio is 4× higher, favouring the parallel algorithms).
	za := tiledqr.RandomMat[complex128](m, n, 2)
	zf, err := tiledqr.FactorComplex(za, tiledqr.Options{Algorithm: tiledqr.Greedy, TileSize: nb})
	if err != nil {
		log.Fatal(err)
	}
	zq := zf.ThinQ()
	fmt.Printf("complex %d×%d block: ‖QᴴQ−I‖ = %.2e, ‖A−QR‖/‖A‖ = %.2e\n",
		m, n, tiledqr.OrthoResidualOf(zq), tiledqr.QRResidualOf(za, zq, zf.R()))

	// For a single tile column (q = 1), the elimination tree is a pure
	// reduction tree; compare the paper's algorithms.
	p, q, _ := f.Grid()
	fmt.Printf("\ncritical paths for the %d×%d tile grid (units of nb³/3 flops):\n", p, q)
	for _, alg := range tiledqr.Algorithms {
		cp, err := tiledqr.CriticalPath(alg, p, q, tiledqr.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10v %4d\n", alg, cp)
	}
	bs, cp := tiledqr.BestPlasmaBS(p, q, tiledqr.TT)
	fmt.Printf("  %-10v %4d (best domain size BS=%d)\n", "PlasmaTree", cp, bs)
	fmt.Println("\nGreedy and BinaryTree coincide for q = 1 — a binary reduction tree,")
	fmt.Println("the communication-avoiding TSQR shape.")
}
