package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
	"weak"

	"tiledqr/internal/core"
	"tiledqr/internal/fault"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// bitsOf views s as its raw bytes, so comparisons are bit for bit (signed
// zeros and NaN payloads included).
func bitsOf[T vec.Scalar](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// sameBits reports whether two dense matrices hold bit-identical entries.
func sameBits[T vec.Scalar](a, b *tile.Dense[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !bytes.Equal(bitsOf(a.Data[i*a.Stride:i*a.Stride+a.Cols]), bitsOf(b.Data[i*b.Stride:i*b.Stride+b.Cols])) {
			return false
		}
	}
	return true
}

// serialFactor is the copy-in flow that preceded the in-DAG fill, on grid
// g: the whole matrix is converted to tile layout up front
// (tile.Matrix.CopyFrom), then the DAG runs with no fill.
func serialFactor[T vec.Scalar](t *testing.T, a *tile.Dense[T], cfg Config, g tile.Grid) *Factorization[T] {
	t.Helper()
	f := &Factorization[T]{}
	key := reuseKey{m: a.Rows, n: a.Cols, algorithm: cfg.Algorithm, kernels: cfg.Kernels,
		coreOpts: cfg.CoreOpts, tileSize: cfg.TileSize, innerBlock: cfg.InnerBlock}
	if err := f.rebuild(g, cfg, key); err != nil {
		t.Fatal(err)
	}
	f.mat.CopyFrom(a)
	if _, err := ExecTasks[T](f, f.plan, cfg.Env, RunOpts{}, Fill[T]{}, f.ib, f.wsLen); err != nil {
		t.Fatal(err)
	}
	f.valid = true
	return f
}

// sameFactors reports where two factorizations of one matrix differ: their
// tiles (R and the reflectors), and what the T factors feed — the thin Q
// and a least-squares solve.
func sameFactors[T vec.Scalar](f, g *Factorization[T], b *tile.Dense[T]) string {
	if !sameBits(f.mat.ToDense(), g.mat.ToDense()) {
		return "tiles"
	}
	if !sameBits(f.ThinQ(), g.ThinQ()) {
		return "ThinQ"
	}
	if f.grid.M < f.grid.N {
		return ""
	}
	x, errF := f.SolveLS(nil, b)
	y, errG := g.SolveLS(nil, b)
	if errF != nil || errG != nil {
		return fmt.Sprintf("SolveLS errors %v, %v", errF, errG)
	}
	if !sameBits(x, y) {
		return "SolveLS"
	}
	return ""
}

// fillEnvs are the placements the fill must be exact under: the shared
// two-worker runtime and the inline path.
var fillEnvs = map[string]Env{"shared": {Workers: 2}, "inline": {Workers: 1}}

// fillShapes are a tall tile-aligned grid and a ragged one (both edges
// partial, p < q in tiles).
var fillShapes = [][2]int{{48, 16}, {21, 35}}

func checkReuseBitIdentity[T vec.Scalar](t *testing.T) {
	for name, env := range fillEnvs {
		for _, kern := range []core.Kernels{core.TT, core.TS} {
			for _, s := range fillShapes {
				m, n := s[0], s[1]
				what := fmt.Sprintf("%s %v %v %d×%d", vec.Prec[T]().Tag(), name, kern, m, n)
				cfg := testConfig()
				cfg.Kernels, cfg.Env = kern, env
				a := tile.RandDense[T](m, n, 1)
				b := tile.RandDense[T](m, n, 2)
				rhs := tile.RandDense[T](m, 2, 3)
				aWas, bWas := a.Clone(), b.Clone()

				f := &Factorization[T]{}
				if err := FactorInto(f, a, cfg); err != nil {
					t.Fatal(err)
				}
				arena := &f.arena[0]
				if err := FactorInto(f, b, cfg); err != nil {
					t.Fatal(err)
				}
				if &f.arena[0] != arena {
					t.Fatalf("%s: the second FactorInto did not reuse the arena", what)
				}
				fresh, err := Factor(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameFactors(f, fresh, rhs); d != "" {
					t.Errorf("%s: reused FactorInto differs from a fresh Factor in %s", what, d)
				}
				if d := sameFactors(fresh, serialFactor(t, b, cfg, tile.FactorGrid(b.Rows, b.Cols, cfg.TileSize)), rhs); d != "" {
					t.Errorf("%s: in-DAG fill differs from the serial copy-in in %s", what, d)
				}
				if !sameBits(a, aWas) || !sameBits(b, bWas) {
					t.Errorf("%s: FactorInto modified its input", what)
				}
			}
		}
	}
}

// TestFillReuseBitIdentity: on the reuse path, FactorInto(f, A) then
// FactorInto(f, B) is bit-identical to a fresh Factor(B), and both to the
// serial copy-in flow, in all four precisions, both kernel families, a
// ragged shape, on a shared runtime and inline; the inputs are not
// modified.
func TestFillReuseBitIdentity(t *testing.T) {
	checkReuseBitIdentity[float64](t)
	checkReuseBitIdentity[float32](t)
	checkReuseBitIdentity[complex128](t)
	checkReuseBitIdentity[complex64](t)
}

// TestFillRetainsNoInput: once FactorInto returns, nothing the
// factorization or the runtime keeps points at the input matrix.
func TestFillRetainsNoInput(t *testing.T) {
	for name, env := range fillEnvs {
		cfg := testConfig()
		cfg.Env = env
		f := &Factorization[float64]{}
		for seed := int64(1); seed <= 2; seed++ { // a cold run, then the reuse path
			a := tile.RandDense[float64](48, 16, seed)
			data := weak.Make(&a.Data[0])
			header := weak.Make(a)
			if err := FactorInto(f, a, cfg); err != nil {
				t.Fatal(err)
			}
			a = nil
			// A shared-runtime worker drops its last job when it parks,
			// just after the job completes: allow it a moment.
			for try := 0; try < 100 && (data.Value() != nil || header.Value() != nil); try++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if data.Value() != nil || header.Value() != nil {
				t.Errorf("%s (seed %d): the input matrix is still reachable after FactorInto returned", name, seed)
			}
		}
		runtime.KeepAlive(f)
	}
}

// TestFillFailureInvalidates: a FactorInto that fails before every tile is
// filled — cancelled up front or mid-run, or hit by an injected error or
// panic on its first first-touch task — leaves f invalid, so R and SolveLS
// refuse it, and the next FactorInto on f is bit-identical to a fresh
// Factor.
func TestFillFailureInvalidates(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		ctx   func() (context.Context, context.CancelFunc)
		fault *fault.Config
	}{
		{name: "canceled", ctx: func() (context.Context, context.CancelFunc) { return canceled, func() {} }},
		{name: "deadline", ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 5*time.Millisecond)
		}, fault: &fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1, Stall: 2 * time.Millisecond}},
		{name: "error", fault: &fault.Config{Mode: fault.ModeError, Kind: core.KGEQRT, Prec: "d", Index: 0, Times: 1}},
		{name: "panic", fault: &fault.Config{Mode: fault.ModePanic, Kind: core.KGEQRT, Prec: "d", Index: 0, Times: 1}},
	}
	for name, env := range fillEnvs {
		for _, tc := range cases {
			what := name + "/" + tc.name
			cfg := testConfig()
			cfg.Env = env
			a := tile.RandDense[float64](48, 16, 1)
			b := tile.RandDense[float64](48, 16, 2)
			rhs := tile.RandDense[float64](48, 1, 3)
			f := &Factorization[float64]{}
			if err := FactorInto(f, a, cfg); err != nil {
				t.Fatal(err)
			}
			bad := cfg
			if tc.ctx != nil {
				ctx, stop := tc.ctx()
				defer stop()
				bad.Ctx = ctx
			}
			if tc.fault != nil {
				fault.Set(*tc.fault)
			}
			err := FactorInto(f, b, bad)
			fault.Reset()
			if err == nil {
				t.Fatalf("%s: FactorInto succeeded", what)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: R served a factorization whose fill did not complete", what)
					}
				}()
				f.R()
			}()
			if _, err := f.SolveLS(nil, rhs); err == nil {
				t.Errorf("%s: SolveLS served a factorization whose fill did not complete", what)
			}
			if err := FactorInto(f, b, cfg); err != nil {
				t.Fatal(err)
			}
			fresh, err := Factor(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameFactors(f, fresh, rhs); d != "" {
				t.Errorf("%s: FactorInto after the failure differs from a fresh Factor in %s", what, d)
			}
		}
	}
}
