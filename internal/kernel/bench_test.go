package kernel

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// BenchmarkKernels times the four kernels a TT elimination tree runs —
// GEQRT, TTQRT, UNMQR, TTMQR — and the two of a stream's row-batch merge,
// TSQRT and TSMQR, with B (and C2) nb and 2·nb rows tall, in double and
// double complex at four tile shapes (nb=32 the tiny-tile regime, where
// per-call overheads weigh most, and nb=48 the tuner's smallest
// calibration point). GEQRT/A=2nb and A=4nb factor the tiles of a
// factorization's tall tile rows (tile.FactorGrid), the work of 2·GEQRT +
// TTQRT and of 4·GEQRT + 3·TTQRT on nb rows; UNMQR/C=2nb applies such a
// tile's reflectors, the work of 2·UNMQR + TTMQR. All run on the scratch
// the engine hands a worker of a grid with 4·nb-row tiles,
// TileWorkLen(4·nb, nb, ib):
//
//	go test -run '^$' -bench Kernels -benchtime 300x ./internal/kernel
//
// GFLOP/s counts 4 real flops per complex flop and, like kernel-µs/op, is
// net of the copies that restore a factor kernel's inputs before each call
// (timed alone after the loop); ns/op includes them. The apply kernels run
// in place (Qᴴ keeps C's norm). To compare two builds, compile both with
// go test -c and alternate them, comparing the minimum kernel-µs/op.
func BenchmarkKernels(b *testing.B) {
	for _, sh := range []struct{ nb, ib int }{{32, 8}, {48, 12}, {64, 16}, {128, 32}} {
		b.Run(fmt.Sprintf("nb=%d", sh.nb), func(b *testing.B) {
			b.Run("f64", func(b *testing.B) { benchKernels[float64](b, sh.nb, sh.ib) })
			b.Run("c128", func(b *testing.B) { benchKernels[complex128](b, sh.nb, sh.ib) })
		})
	}
}

func benchKernels[T vec.Scalar](b *testing.B, nb, ib int) {
	flopScale := 1.0
	if vec.IsComplex[T]() {
		flopScale = 4
	}
	work := make([]T, TileWorkLen(4*nb, nb, ib))
	full := tile.RandDense[T](nb, nb, 1).Data
	tri, tri2 := randUpperTri[T](nb, 2).Data, randUpperTri[T](nb, 3).Data
	v := slices.Clone(full)
	tv := make([]T, ib*nb)
	GEQRT(nb, nb, ib, v, nb, tv, nb, work)
	vtt, ttt := slices.Clone(tri2), make([]T, ib*nb)
	TTQRT(nb, nb, ib, slices.Clone(tri), nb, vtt, nb, ttt, nb, work)
	c1, c2 := tile.RandDense[T](nb, nb, 4).Data, tile.RandDense[T](nb, nb, 5).Data
	x, y, tf := make([]T, nb*nb), make([]T, 4*nb*nb), make([]T, ib*nb)
	inPlace := func() {}
	type bench struct {
		name    string
		weight  int // units of nb³/3 flops
		restore func()
		f       func()
	}
	cases := []bench{
		{"GEQRT", 4, func() { copy(x, full) }, func() { GEQRT(nb, nb, ib, x, nb, tf, nb, work) }},
		{"TTQRT", 2, func() { copy(x, tri); copy(y, tri2) }, func() { TTQRT(nb, nb, ib, x, nb, y, nb, tf, nb, work) }},
		{"UNMQR", 6, inPlace, func() { UNMQR(true, nb, nb, ib, v, nb, tv, nb, c1, nb, nb, work) }},
		{"TTMQR", 6, inPlace, func() { TTMQR(true, nb, nb, ib, vtt, nb, ttt, nb, c1, nb, c2, nb, nb, work) }},
	}
	// GEQRT on an m-row tile costs 6·m/nb − 2 units, UNMQR of its
	// reflectors 12·m/nb − 6.
	tallA := tile.RandDense[T](4*nb, nb, 8).Data
	for _, h := range []int{2, 4} {
		m := h * nb
		cases = append(cases, bench{fmt.Sprintf("GEQRT/A=%dnb", h), 6*h - 2, func() { copy(y[:m*nb], tallA) },
			func() { GEQRT(m, nb, ib, y, nb, tf, nb, work) }})
	}
	vTall, tTall := slices.Clone(tallA[:2*nb*nb]), make([]T, ib*nb)
	GEQRT(2*nb, nb, ib, vTall, nb, tTall, nb, work)
	cTall := tile.RandDense[T](2*nb, nb, 9).Data
	cases = append(cases, bench{"UNMQR/C=2nb", 18, inPlace,
		func() { UNMQR(true, 2*nb, nb, ib, vTall, nb, tTall, nb, cTall, nb, nb, work) }})
	// TS kernels with an m-row B: TSQRT costs 6·m/nb units, TSMQR 12·m/nb.
	for _, h := range []int{1, 2} {
		m := h * nb
		tall := tile.RandDense[T](m, nb, 6).Data
		vts, tts := slices.Clone(tall), make([]T, ib*nb)
		TSQRT(m, nb, ib, slices.Clone(tri), nb, vts, nb, tts, nb, work)
		c2ts := tile.RandDense[T](m, nb, 7).Data
		cases = append(cases,
			bench{fmt.Sprintf("TSQRT/B=%dnb", h), 6 * h, func() { copy(x, tri); copy(y, tall) },
				func() { TSQRT(m, nb, ib, x, nb, y, nb, tf, nb, work) }},
			bench{fmt.Sprintf("TSMQR/B=%dnb", h), 12 * h, inPlace,
				func() { TSMQR(true, m, nb, ib, vts, nb, tts, nb, c1, nb, c2ts, nb, nb, work) }})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.restore()
				c.f()
			}
			b.StopTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				c.restore()
			}
			kernelTime := b.Elapsed() - time.Since(start)
			flops := flopScale * float64(c.weight) * float64(nb*nb*nb) / 3
			b.ReportMetric(flops*float64(b.N)/kernelTime.Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(kernelTime.Seconds()*1e6/float64(b.N), "kernel-µs/op")
		})
	}
}
