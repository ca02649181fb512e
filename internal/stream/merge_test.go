package stream

import (
	"fmt"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/vec"
)

// TestMergeTreesMatchOneShot forces every merge tree in both kernel families
// on the row-batch merges of an accrete-only and of a windowed stream, in all
// four precisions: R, Qᵀb, the least-squares solution and the residual must
// match a one-shot factorization of the same rows. Batch heights run from
// one row to nine tile rows, ragged last tiles included.
func TestMergeTreesMatchOneShot(t *testing.T) {
	for _, alg := range core.MergeAlgorithms {
		for _, kern := range []core.Kernels{core.TT, core.TS} {
			name := alg.String() + "/" + kern.String()
			t.Run(name+"/d", func(t *testing.T) { forcedMerges[float64](t, alg, kern, 1e-10) })
			t.Run(name+"/z", func(t *testing.T) { forcedMerges[complex128](t, alg, kern, 1e-10) })
			t.Run(name+"/s", func(t *testing.T) { forcedMerges[float32](t, alg, kern, 2e-4) })
			t.Run(name+"/c", func(t *testing.T) { forcedMerges[complex64](t, alg, kern, 2e-4) })
		}
	}
}

func forcedMerges[T vec.Scalar](t *testing.T, alg core.Algorithm, kern core.Kernels, tol float64) {
	for _, window := range []int{0, 50} {
		h := newHarness[T](t, 20, 2, Config{Window: window}, tol)
		h.c.rowTree, h.c.rowKernels = alg, kern
		for i, r := range []int{1, 8, 13, 40, 3, 70} {
			h.append(r)
			h.check(fmt.Sprintf("window %d, append %d (%d rows)", window, i, r))
		}
	}
}
