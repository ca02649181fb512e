package engine

import (
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
)

// BenchmarkFactorInto times the reuse path — FactorInto over a warm
// factorization of the same shape, copy-in included — on a two-worker
// runtime, at the shapes of bench's tsqr_panel (one tile column) and
// tall_ls workloads. For an old-vs-new reading build each side with
// `go test -c` and alternate the binaries.
func BenchmarkFactorInto(b *testing.B) {
	rt := sched.NewRuntime(2)
	defer rt.Close()
	for _, s := range []struct {
		name         string
		m, n, nb, ib int
	}{
		{"tsqr_panel", 16384, 128, 128, 32},
		{"tall_ls", 2560, 256, 64, 16},
	} {
		b.Run(s.name, func(b *testing.B) {
			cfg := Config{Algorithm: core.Greedy, Kernels: core.TT,
				TileSize: s.nb, InnerBlock: s.ib, Env: Env{Runtime: rt}}
			a := tile.RandDense[float64](s.m, s.n, 1)
			f := &Factorization[float64]{}
			if err := FactorInto(f, a, cfg); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * s.m * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := FactorInto(f, a, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			flops := 2*float64(s.m)*float64(s.n)*float64(s.n) - 2*float64(s.n)*float64(s.n)*float64(s.n)/3
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
