package stream

import (
	"fmt"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/vec"
)

// TestMergeTreesMatchOneShot runs both merge lists of a stream in all four
// precisions: R, Qᵀb, the least-squares solution and the residual must
// match a one-shot factorization of the same rows. FlatTree/TS is an
// accrete-only stream, whose every merge is a row batch along FlatTree
// with TS kernels; BinaryTree/<family> is a windowed one, whose reads also
// re-merge triangles along BinaryTree in that family. Batch heights run
// from one row to nine tile rows, ragged last tiles included.
func TestMergeTreesMatchOneShot(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"FlatTree/TS", Config{}},
		{"BinaryTree/TT", Config{Window: 50, Kernels: core.TT}},
		{"BinaryTree/TS", Config{Window: 50, Kernels: core.TS}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		t.Run(tc.name+"/d", func(t *testing.T) { merges[float64](t, cfg, 1e-10) })
		t.Run(tc.name+"/z", func(t *testing.T) { merges[complex128](t, cfg, 1e-10) })
		t.Run(tc.name+"/s", func(t *testing.T) { merges[float32](t, cfg, 2e-4) })
		t.Run(tc.name+"/c", func(t *testing.T) { merges[complex64](t, cfg, 2e-4) })
	}
}

func merges[T vec.Scalar](t *testing.T, cfg Config, tol float64) {
	h := newHarness[T](t, 20, 2, cfg, tol)
	for i, r := range []int{1, 8, 13, 40, 3, 70} {
		h.append(r)
		h.check(fmt.Sprintf("window %d, append %d (%d rows)", cfg.Window, i, r))
	}
}
