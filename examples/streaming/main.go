// Online least squares over a row stream: the serving-style workload the
// streaming TSQR subsystem exists for.
//
// A sensor produces readings forever; we fit y ≈ x·w by least squares
// WITHOUT ever storing the observation history. A Stream[float64] ingests batches
// of (features, target) rows and retains only the n×n triangle R and the
// top n rows of Qᵀb — O(n²) state — yet SolveLS at any moment returns
// exactly the least-squares fit over every row seen so far, identical to
// factoring the full history in one shot.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"tiledqr"
)

func main() {
	const (
		features  = 12
		batchRows = 500
		batches   = 40
	)

	// Ground-truth weights the stream will recover.
	truth := make([]float64, features)
	rng := rand.New(rand.NewSource(3))
	for i := range truth {
		truth[i] = math.Sin(float64(i)) * 2
	}

	s, err := tiledqr.NewStreamOf[float64](features, tiledqr.Options{TileSize: 64})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streaming %d batches of %d noisy observations, %d features\n\n", batches, batchRows, features)
	fmt.Println("  batch      rows     max |w − truth|    ‖residual‖/√rows   retained state")
	for bi := 1; bi <= batches; bi++ {
		x := tiledqr.NewMat[float64](batchRows, features)
		y := tiledqr.NewMat[float64](batchRows, 1)
		for r := 0; r < batchRows; r++ {
			dot := 0.0
			for c := 0; c < features; c++ {
				v := rng.NormFloat64()
				x.Set(r, c, v)
				dot += truth[c] * v
			}
			y.Set(r, 0, dot+0.05*rng.NormFloat64()) // noisy target
		}
		if err := s.AppendRHS(x, y); err != nil {
			log.Fatal(err)
		}
		// Solve at a few checkpoints: the estimate sharpens as rows arrive,
		// while the retained state stays constant-size.
		if bi == 1 || bi == 5 || bi%10 == 0 {
			w, err := s.SolveLS()
			if err != nil {
				log.Fatal(err)
			}
			var worst float64
			for c := 0; c < features; c++ {
				worst = math.Max(worst, math.Abs(w.At(c, 0)-truth[c]))
			}
			rows := float64(s.Rows())
			resid, err := s.ResidualNorm()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5d  %8d        %.3e          %.4f         %d floats\n",
				bi, s.Rows(), worst, resid/math.Sqrt(rows), s.Footprint())
		}
	}

	fmt.Println("\nthe estimate converges like 1/√rows while memory stays flat:")
	fmt.Printf("  %d rows ingested, %d floats retained (a %d×%d triangle + Qᵀb + workspaces)\n",
		s.Rows(), s.Footprint(), features, features)
	fmt.Println("  the same rows factored one-shot would need", batches*batchRows*features, "floats for A alone")
}
