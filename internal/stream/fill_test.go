package stream

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/fault"
	"tiledqr/internal/tile"
)

// TestAppendFailurePoisons: an append whose merge DAG fails before its
// first writers have filled every batch tile — cancelled, or an injected
// error or panic on the first TSQRT, which first-writes a batch tile —
// poisons the stream with the original cause, as every mid-merge failure
// does: later appends, merges and reads refuse. So does a window read
// whose triangle merge fails at its first TTQRT. The caller's batch is
// never modified.
func TestAppendFailurePoisons(t *testing.T) {
	const n, r = 24, 40
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name   string
		window int // a windowed stream, whose first read merges triangles
		ctx    context.Context
		fault  *fault.Config
		cause  string
	}{
		{name: "canceled", ctx: canceled, cause: "context canceled"},
		{name: "error", fault: &fault.Config{Mode: fault.ModeError, Kind: core.KTSQRT, Prec: "d", Index: 0, Times: 1}, cause: "injected error"},
		{name: "panic", fault: &fault.Config{Mode: fault.ModePanic, Kind: core.KTSQRT, Prec: "d", Index: 0, Times: 1}, cause: "injected panic"},
		{name: "window read", window: r + n, fault: &fault.Config{Mode: fault.ModeError, Kind: core.KTTQRT, Prec: "d", Index: 0, Times: 1}, cause: "injected error"},
	}
	for _, env := range []engine.Env{{Workers: 1}, {Workers: 2}} {
		for _, tc := range cases {
			c, err := NewCore[float64](n, Config{NB: 8, IB: 4, Kernels: core.TT, Env: env, Window: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			a, b := tile.RandDense[float64](2*r, n, 1), tile.RandDense[float64](2*r, 1, 2)
			if err := c.Append(nil, r, a.Data, n, b.Data, 1, 1); err != nil {
				t.Fatal(err)
			}
			aWas := a.Clone()
			if tc.fault != nil {
				fault.Set(*tc.fault)
			}
			err = c.Append(tc.ctx, r, a.Data[r*n:], n, b.Data[r:], 1, 1)
			if tc.window != 0 {
				if err != nil {
					fault.Reset()
					t.Fatalf("workers=%d %s: Append = %v before any triangle merge", env.Workers, tc.name, err)
				}
				err = c.CopyR(make([]float64, n*n), n)
			}
			fault.Reset()
			if err == nil || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("workers=%d %s: failed merge = %v, want a failure citing %q", env.Workers, tc.name, err, tc.cause)
			}
			if tc.ctx != nil && !errors.Is(c.Err(), context.Canceled) {
				t.Errorf("workers=%d %s: Err() = %v, want the sticky cancellation", env.Workers, tc.name, c.Err())
			}
			if c.Err() == nil {
				t.Fatalf("workers=%d %s: the failed merge did not poison the stream", env.Workers, tc.name)
			}
			if err := c.Append(nil, r, a.Data, n, b.Data, 1, 1); err == nil {
				t.Errorf("workers=%d %s: a poisoned stream accepted an append", env.Workers, tc.name)
			}
			if err := c.CopyR(make([]float64, n*n), n); err == nil {
				t.Errorf("workers=%d %s: CopyR served a poisoned stream", env.Workers, tc.name)
			}
			if err := c.SolveLS(make([]float64, n), 1); err == nil {
				t.Errorf("workers=%d %s: SolveLS served a poisoned stream", env.Workers, tc.name)
			}
			if tile.MaxAbsDiff(a, aWas) != 0 {
				t.Errorf("workers=%d %s: the append modified the caller's batch", env.Workers, tc.name)
			}
		}
	}
}
