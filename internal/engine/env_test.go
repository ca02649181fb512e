package engine

import (
	"runtime"
	"testing"

	"tiledqr/internal/tile"
)

// TestBareEnvHonoursWorkersEnv: a zero Env resolves its width like every
// other default — TILEDQR_WORKERS if set, else GOMAXPROCS — for the
// inline-or-pool decision too, not only for the pool's size.
func TestBareEnvHonoursWorkersEnv(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Setenv("TILEDQR_WORKERS", "3")
	cfg := testConfig()
	cfg.Env, cfg.Trace = Env{}, true
	f, err := Factor(tile.RandDense[float64](40, 16, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Trace().Workers; got != 3 {
		t.Errorf("GOMAXPROCS=1, TILEDQR_WORKERS=3: bare Env ran on %d workers, want 3", got)
	}
}
