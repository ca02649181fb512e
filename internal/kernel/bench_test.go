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
// GEQRT, TTQRT, UNMQR, TTMQR — in double and double complex at two tile
// shapes, on scratch of WorkLen(nb, ib) as the engine hands a worker:
//
//	go test -run '^$' -bench Kernels -benchtime 300x ./internal/kernel
//
// GFLOP/s counts 4 real flops per complex flop and, like kernel-µs/op, is
// net of the copies that restore a factor kernel's inputs before each call
// (timed alone after the loop); ns/op includes them. The apply kernels run
// in place (Qᴴ keeps C's norm). To compare two builds, compile both with
// go test -c and alternate them, comparing the minimum kernel-µs/op.
func BenchmarkKernels(b *testing.B) {
	for _, sh := range []struct{ nb, ib int }{{64, 16}, {128, 32}} {
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
	work := make([]T, WorkLen(nb, ib))
	full := tile.RandDense[T](nb, nb, 1).Data
	tri, tri2 := randUpperTri[T](nb, 2).Data, randUpperTri[T](nb, 3).Data
	v := slices.Clone(full)
	tv := make([]T, ib*nb)
	GEQRT(nb, nb, ib, v, nb, tv, nb, work)
	vtt, ttt := slices.Clone(tri2), make([]T, ib*nb)
	TTQRT(nb, nb, ib, slices.Clone(tri), nb, vtt, nb, ttt, nb, work)
	c1, c2 := tile.RandDense[T](nb, nb, 4).Data, tile.RandDense[T](nb, nb, 5).Data
	x, y, tf := make([]T, nb*nb), make([]T, nb*nb), make([]T, ib*nb)
	inPlace := func() {}
	for _, c := range []struct {
		name    string
		weight  int // units of nb³/3 flops
		restore func()
		f       func()
	}{
		{"GEQRT", 4, func() { copy(x, full) }, func() { GEQRT(nb, nb, ib, x, nb, tf, nb, work) }},
		{"TTQRT", 2, func() { copy(x, tri); copy(y, tri2) }, func() { TTQRT(nb, nb, ib, x, nb, y, nb, tf, nb, work) }},
		{"UNMQR", 6, inPlace, func() { UNMQR(true, nb, nb, ib, v, nb, tv, nb, c1, nb, nb, work) }},
		{"TTMQR", 6, inPlace, func() { TTMQR(true, nb, nb, ib, vtt, nb, ttt, nb, c1, nb, c2, nb, nb, work) }},
	} {
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
