package tiledqr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tiledqr/internal/sched"
)

// Compile-time pins of the per-precision API that predates QR[T]: the
// aliases must stay identical to the generic instantiations and every shim
// must keep its signature, so the compat layer cannot drift silently.
var (
	_ *QR[float64]    = (*Factorization)(nil)
	_ *QR[complex128] = (*ZFactorization)(nil)
	_ *QR[float32]    = (*Factorization32)(nil)
	_ *QR[complex64]  = (*CFactorization)(nil)

	_ *Stream[float64]    = (*StreamQR)(nil)
	_ *Stream[complex128] = (*ZStreamQR)(nil)
	_ *Stream[float32]    = (*StreamQR32)(nil)
	_ *Stream[complex64]  = (*CStreamQR)(nil)

	_ func(*Dense, Options) (*Factorization, error)                  = Factor
	_ func(context.Context, *Dense, Options) (*Factorization, error) = FactorCtx
	_ func(*Factorization, *Dense, Options) error                    = FactorInto
	_ func(context.Context, *Factorization, *Dense, Options) error   = FactorIntoCtx

	_ func(*ZDense, Options) (*ZFactorization, error)                  = FactorComplex
	_ func(context.Context, *ZDense, Options) (*ZFactorization, error) = FactorComplexCtx
	_ func(*ZFactorization, *ZDense, Options) error                    = ZFactorInto
	_ func(context.Context, *ZFactorization, *ZDense, Options) error   = ZFactorIntoCtx

	_ func(*Dense32, Options) (*Factorization32, error)                  = Factor32
	_ func(context.Context, *Dense32, Options) (*Factorization32, error) = Factor32Ctx
	_ func(*Factorization32, *Dense32, Options) error                    = FactorInto32
	_ func(context.Context, *Factorization32, *Dense32, Options) error   = FactorInto32Ctx

	_ func(*CDense, Options) (*CFactorization, error)                  = CFactor
	_ func(context.Context, *CDense, Options) (*CFactorization, error) = CFactorCtx
	_ func(*CFactorization, *CDense, Options) error                    = CFactorInto
	_ func(context.Context, *CFactorization, *CDense, Options) error   = CFactorIntoCtx

	_ func(int, Options) (*StreamQR, error)   = NewStream
	_ func(int, Options) (*ZStreamQR, error)  = NewZStream
	_ func(int, Options) (*StreamQR32, error) = NewStream32
	_ func(int, Options) (*CStreamQR, error)  = NewCStream

	_ interface {
		factorizationAPI[float64]
		realApplyAPI[float64]
	} = (*Factorization)(nil)
	_ interface {
		factorizationAPI[float32]
		realApplyAPI[float32]
	} = (*Factorization32)(nil)
	_ interface {
		factorizationAPI[complex128]
		complexApplyAPI[complex128]
	} = (*ZFactorization)(nil)
	_ interface {
		factorizationAPI[complex64]
		complexApplyAPI[complex64]
	} = (*CFactorization)(nil)
)

// factorizationAPI is the method set all four per-precision factorization
// types had; the real ones added ApplyQT, the complex ones ApplyQH.
type factorizationAPI[T Scalar] interface {
	Refactor(*Mat[T]) error
	RefactorCtx(context.Context, *Mat[T]) error
	Err() error
	R() *Mat[T]
	ApplyQ(*Mat[T]) error
	ApplyQCtx(context.Context, *Mat[T]) error
	Q() *Mat[T]
	ThinQ() *Mat[T]
	SolveLS(*Mat[T]) (*Mat[T], error)
	SolveLSCtx(context.Context, *Mat[T]) (*Mat[T], error)
	Trace() *sched.Trace
	GanttChart(int) string
	Utilization() sched.Utilization
	TaskCount() int
	Grid() (p, q, nb int)
}

type realApplyAPI[T Scalar] interface {
	ApplyQT(*Mat[T]) error
	ApplyQTCtx(context.Context, *Mat[T]) error
}

type complexApplyAPI[T Scalar] interface {
	ApplyQH(*Mat[T]) error
	ApplyQHCtx(context.Context, *Mat[T]) error
}

// TestZeroQRAccessors: a never-factored QR — the documented FactorInto
// target — answers every accessor with the descriptive empty-factorization
// error (value-returning ones panic with it) instead of a nil dereference,
// and then factors and serves normally.
func TestZeroQRAccessors(t *testing.T) {
	t.Run("d", testZeroQR[float64])
	t.Run("z", testZeroQR[complex128])
	t.Run("s", testZeroQR[float32])
	t.Run("c", testZeroQR[complex64])
}

func testZeroQR[T Scalar](t *testing.T) {
	const want = "empty factorization (use Factor or FactorInto first)"
	f := &QR[T]{}
	a, b := RandomMat[T](24, 8, 1), RandomMat[T](24, 2, 2)

	_, solveErr := f.SolveLS(b)
	for name, err := range map[string]error{
		"Err": f.Err(), "Refactor": f.Refactor(a), "SolveLS": solveErr,
		"ApplyQ": f.ApplyQ(b), "ApplyQH": f.ApplyQH(b), "ApplyQT": f.ApplyQT(b),
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on a zero QR: got %v, want an error containing %q", name, err, want)
		}
	}
	for name, call := range map[string]func(){
		"R": func() { f.R() }, "Q": func() { f.Q() }, "ThinQ": func() { f.ThinQ() },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("%s on a zero QR: panicked with %q, want it to contain %q", name, msg, want)
				}
			}()
			call()
			t.Errorf("%s on a zero QR returned instead of panicking", name)
		}()
	}
	if n := f.TaskCount(); n != 0 {
		t.Errorf("TaskCount on a zero QR = %d, want 0", n)
	}
	if f.Trace() != nil || f.GanttChart(40) == "" || f.Utilization().Overall != 0 {
		t.Error("trace accessors on a zero QR: want nil trace, a placeholder chart, zero utilization")
	}
	if p, q, nb := f.Grid(); p != 0 || q != 0 || nb != 0 {
		t.Errorf("Grid on a zero QR = %d,%d,%d, want zeros", p, q, nb)
	}

	if err := FactorIntoOf(nil, f, a, Options{TileSize: 8, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if f.Err() != nil || f.TaskCount() == 0 {
		t.Fatalf("after FactorIntoOf: Err=%v TaskCount=%d", f.Err(), f.TaskCount())
	}
	// A copied handle refers to the same factorization.
	g := *f
	if err := f.Refactor(RandomMat[T](24, 8, 3)); err != nil {
		t.Fatal(err)
	}
	if g.R().At(0, 0) != f.R().At(0, 0) {
		t.Error("a copied QR handle did not follow the original's Refactor")
	}
}
