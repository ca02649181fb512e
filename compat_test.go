package tiledqr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tiledqr/internal/sched"
)

// Compile-time pins of what is left of the per-precision API (the names
// bench/ calls): the aliases must stay identical to the generic
// instantiations and every shim must keep its signature.
var (
	_ *QR[float64]    = (*Factorization)(nil)
	_ *QR[complex128] = (*ZFactorization)(nil)

	_ func(*Dense, Options) (*Factorization, error)   = Factor
	_ func(*Factorization, *Dense, Options) error     = FactorInto
	_ func(*ZDense, Options) (*ZFactorization, error) = FactorComplex
	_ func(*ZFactorization, *ZDense, Options) error   = ZFactorInto
)

// The generic factorization's method set, pinned at all four precisions so
// that dropping or changing a method fails to compile.
var (
	_ qrAPI[float64]    = (*QR[float64])(nil)
	_ qrAPI[complex128] = (*QR[complex128])(nil)
	_ qrAPI[float32]    = (*QR[float32])(nil)
	_ qrAPI[complex64]  = (*QR[complex64])(nil)
)

type qrAPI[T Scalar] interface {
	Refactor(*Mat[T]) error
	RefactorCtx(context.Context, *Mat[T]) error
	Err() error
	R() *Mat[T]
	ApplyQ(*Mat[T]) error
	ApplyQCtx(context.Context, *Mat[T]) error
	ApplyQH(*Mat[T]) error
	ApplyQHCtx(context.Context, *Mat[T]) error
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
		"ApplyQ": f.ApplyQ(b), "ApplyQH": f.ApplyQH(b),
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
