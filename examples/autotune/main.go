// Command autotune demonstrates model-guided autotuning: AlgorithmAuto
// lets the library pick the elimination tree, kernel family, tile size and
// inner blocking per matrix shape, using a per-host kernel calibration
// (measured in process, each tile size the first time a decision prices
// it) combined with the paper's bounded-processor schedule model.
package main

import (
	"fmt"
	"time"

	"tiledqr"
)

func main() {
	fmt.Println("Model-guided autotuning: tiledqr.AlgorithmAuto")
	fmt.Println()

	shapes := [][2]int{{512, 96}, {256, 256}, {96, 512}, {1024, 128}}
	auto := tiledqr.Options{Algorithm: tiledqr.AlgorithmAuto}

	for _, s := range shapes {
		m, n := s[0], s[1]
		// Resolve shows the decision without running anything: the options
		// a Factor call would actually use.
		resolved, err := auto.Resolve(m, n)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%4d×%-4d → %-10v %v kernels, nb=%d, ib=%d\n",
			m, n, resolved.Algorithm, resolved.Kernels, resolved.TileSize, resolved.InnerBlock)

		// Factoring with Auto and with the resolved options is the same
		// computation, bit for bit.
		a := tiledqr.RandomDense(m, n, 42)
		start := time.Now()
		f, err := tiledqr.Factor(a, auto)
		if err != nil {
			panic(err)
		}
		fmt.Printf("           factored in %v (%d kernel tasks)\n", time.Since(start).Round(time.Microsecond), f.TaskCount())
	}

	fmt.Println()
	fmt.Println("Streams pick their tile shape the same way:")
	st, err := tiledqr.NewStreamOf[float64](300, auto)
	if err != nil {
		panic(err)
	}
	for batch := 0; batch < 4; batch++ {
		if err := st.AppendRows(tiledqr.RandomDense(128, 300, int64(batch))); err != nil {
			panic(err)
		}
	}
	fmt.Printf("streamed %d rows into a %d-column resident triangle (footprint %d floats)\n",
		st.Rows(), st.N(), st.Footprint())

	fmt.Println()
	fmt.Println("Pin any dimension of the decision by setting it nonzero, e.g. TileSize=128:")
	pinned, err := tiledqr.Options{Algorithm: tiledqr.AlgorithmAuto, TileSize: 128}.Resolve(512, 256)
	if err != nil {
		panic(err)
	}
	fmt.Printf("512×256 with nb pinned to 128 → %v %v kernels, ib=%d\n",
		pinned.Algorithm, pinned.Kernels, pinned.InnerBlock)
}
