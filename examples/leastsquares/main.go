// Least squares: the paper's headline motivation for tall-and-skinny QR.
//
// We fit a degree-7 polynomial to 4000 noisy samples by solving
// min‖V·c − y‖₂ where V is the 4000×8 Vandermonde matrix — exactly the
// m ≫ n regime (p ≫ q in tiles) where Greedy's short critical path beats
// PLASMA's flat tree.
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
		samples = 4000
		degree  = 7
		nb      = 100
	)

	// True coefficients of the polynomial we pretend not to know.
	truth := []float64{0.8, -1.5, 0.3, 2.0, -0.7, 0.05, -0.4, 0.12}

	rng := rand.New(rand.NewSource(7))
	v := tiledqr.NewMat[float64](samples, degree+1)
	y := tiledqr.NewMat[float64](samples, 1)
	for i := 0; i < samples; i++ {
		x := -1 + 2*float64(i)/float64(samples-1)
		pow := 1.0
		yi := 0.0
		for j := 0; j <= degree; j++ {
			v.Set(i, j, pow)
			yi += truth[j] * pow
			pow *= x
		}
		y.Set(i, 0, yi+0.001*rng.NormFloat64()) // small measurement noise
	}

	f, err := tiledqr.Factor(v, tiledqr.Options{
		Algorithm: tiledqr.Greedy,
		TileSize:  nb,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := f.SolveLS(y)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("coefficient  estimate      truth        error")
	var worst float64
	for j := 0; j <= degree; j++ {
		e := math.Abs(c.At(j, 0) - truth[j])
		worst = math.Max(worst, e)
		fmt.Printf("   x^%d      %+.6f    %+.6f    %.2e\n", j, c.At(j, 0), truth[j], e)
	}
	fmt.Printf("\nmax coefficient error: %.2e\n", worst)

	// Residual diagnostics: for a least-squares solution the residual is
	// orthogonal to the column span of V.
	res := tiledqr.MulOf(v, c)
	for i := 0; i < samples; i++ {
		res.Set(i, 0, y.At(i, 0)-res.At(i, 0))
	}
	fmt.Printf("‖y − V·c‖            = %.3e (noise floor)\n", tiledqr.FrobeniusNormOf(res))
	fmt.Printf("‖Vᵀ(y − V·c)‖        = %.3e (normal equations)\n",
		tiledqr.FrobeniusNormOf(tiledqr.MulOf(tiledqr.Transpose(v), res)))

	p, q, _ := f.Grid()
	fmt.Printf("\ntile grid %d×%d — this is the p ≫ q regime of the paper's Section 4\n", p, q)
}
