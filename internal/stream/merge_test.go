package stream

import (
	"fmt"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/fault"
	"tiledqr/internal/tile"
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

// TestBatchTileHeight: a row batch is staged in tiles batchTileRows·nb
// rows tall, so one 256-row batch into an n = 256, nb = 64 stream (q = 4)
// builds and runs only the two-tile-row merge plan — 8 TSQRT and 12 TSMQR,
// 20 tasks — and not the 40 of four nb-row tile rows. A right-hand side is
// a fifth tile column of the same plan (q = 5): 10 TSQRT and 20 TSMQR. The
// executed tasks are counted by the fault injector armed to stall every
// float64 task for no time.
func TestBatchTileHeight(t *testing.T) {
	const n, nb, ib, r = 256, 64, 16, 256
	for _, tc := range []struct{ nrhs, tsqrt, tsmqr int }{{0, 8, 12}, {1, 10, 20}} {
		c, err := NewCore[float64](n, Config{NB: nb, IB: ib, Env: engine.Env{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		a := tile.RandDense[float64](r, n, 3)
		var rhs []float64
		if tc.nrhs > 0 {
			rhs = tile.RandDense[float64](r, tc.nrhs, 4).Data
		}
		fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1})
		err = c.Append(nil, r, a.Data, n, rhs, tc.nrhs, tc.nrhs)
		ran := fault.Injected()
		fault.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.plans) != 1 || c.plans[2] == nil {
			keys := make([]int, 0, len(c.plans))
			for pb := range c.plans {
				keys = append(keys, pb)
			}
			t.Fatalf("nrhs=%d: merge plans built for pb = %v, want only pb = 2", tc.nrhs, keys)
		}
		d := c.plans[2].DAG()
		kinds := map[core.Kind]int{}
		for _, task := range d.Tasks {
			kinds[task.Kind]++
		}
		if q := 4 + tc.nrhs; d.Q != q {
			t.Errorf("nrhs=%d: merge plan over %d tile columns, want %d", tc.nrhs, d.Q, q)
		}
		if kinds[core.KTSQRT] != tc.tsqrt || kinds[core.KTSMQR] != tc.tsmqr || len(kinds) != 2 {
			t.Errorf("nrhs=%d: pb = 2 merge plan has tasks %v, want %d TSQRT and %d TSMQR", tc.nrhs, kinds, tc.tsqrt, tc.tsmqr)
		}
		if want := int64(tc.tsqrt + tc.tsmqr); ran != want {
			t.Errorf("nrhs=%d: the append ran %d tasks, want %d", tc.nrhs, ran, want)
		}
	}
}
