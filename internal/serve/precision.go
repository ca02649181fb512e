package serve

import (
	"context"
	"fmt"
	"strings"

	"tiledqr"
	"tiledqr/internal/vec"
)

// The handlers are precision-blind: they speak to one of four domains
// through the ops interface below, whose single generic implementation
// (domain[T]) works on tiledqr.Mat[T] and calls the generic public API
// (tiledqr.FactorOf/FactorIntoOf, tiledqr.Stream[T]) directly. The only
// per-precision code in the package is the four-entry domains table.

// ops is one precision's view of the library, expressed over wire matrices.
type ops interface {
	// Precision returns the wire tag: "d", "z", "s" or "c".
	Precision() string
	// IsComplex reports whether Data is interleaved re/im.
	IsComplex() bool
	// CheckMatrix validates a wire matrix for this domain.
	CheckMatrix(m *Matrix, maxElems int) error
	// Factor runs a one-shot factorization and returns R and the task count.
	Factor(ctx context.Context, a *Matrix, opt tiledqr.Options) (*Matrix, int, error)
	// Solve factors a once and solves min‖a·x − rhs‖₂ for every right-hand
	// side in one multi-column SolveLS — the coalescing primitive. The
	// returned slice is index-aligned with rhs.
	Solve(ctx context.Context, a *Matrix, rhs []*Matrix, opt tiledqr.Options) ([]*Matrix, int, error)
	// NewStream opens a streaming session over n columns. opt may carry
	// WindowRows/Forget for windowed or forgetful streams.
	NewStream(n int, opt tiledqr.Options) (streamOps, error)
	// NewReusable opens a reusable factorization session (FactorInto
	// arena reuse across same-shaped submissions).
	NewReusable(opt tiledqr.Options) reusableOps
}

// streamOps is a precision-blind streaming session.
type streamOps interface {
	Append(ctx context.Context, batch, rhs *Matrix) error
	// Downdate removes the oldest k rows (requires a retention-enabled
	// stream) and returns the remaining row count.
	Downdate(ctx context.Context, k int) (int64, error)
	Rows() int64
	N() int
	Solve() (*Matrix, float64, error)
	R() (*Matrix, error)
}

// reusableOps is a precision-blind FactorInto session: Submit factors a
// (reusing the previous arena and plan when the shape matches) and either
// solves against rhs or returns R when rhs is nil.
type reusableOps interface {
	Submit(ctx context.Context, a, rhs *Matrix) (*Matrix, int, error)
}

// domain is the one generic ops implementation.
type domain[T vec.Scalar] struct{}

func (d *domain[T]) Precision() string { return vec.Prec[T]().Tag() }
func (d *domain[T]) IsComplex() bool   { return vec.IsComplex[T]() }

func (d *domain[T]) CheckMatrix(m *Matrix, maxElems int) error {
	return m.check(vec.IsComplex[T](), maxElems)
}

func (d *domain[T]) Factor(ctx context.Context, a *Matrix, opt tiledqr.Options) (*Matrix, int, error) {
	f, err := tiledqr.FactorOf(ctx, decode[T](a), opt)
	if err != nil {
		return nil, 0, err
	}
	return encode(f.R()), f.TaskCount(), nil
}

func (d *domain[T]) Solve(ctx context.Context, a *Matrix, rhs []*Matrix, opt tiledqr.Options) ([]*Matrix, int, error) {
	if a.Rows < a.Cols {
		return nil, 0, fmt.Errorf("least squares wants rows ≥ cols, got %d×%d", a.Rows, a.Cols)
	}
	widths := make([]int, len(rhs))
	for k, b := range rhs {
		if b.Rows != a.Rows {
			return nil, 0, fmt.Errorf("right-hand side has %d rows, matrix has %d", b.Rows, a.Rows)
		}
		widths[k] = b.Cols
	}
	f, err := tiledqr.FactorOf(ctx, decode[T](a), opt)
	if err != nil {
		return nil, 0, err
	}
	x, err := f.SolveLSCtx(ctx, hcat[T](rhs, vec.IsComplex[T]()))
	if err != nil {
		return nil, 0, err
	}
	return splitCols(x, widths), f.TaskCount(), nil
}

func (d *domain[T]) NewStream(n int, opt tiledqr.Options) (streamOps, error) {
	s, err := tiledqr.NewStreamOf[T](n, opt)
	if err != nil {
		return nil, err
	}
	return &streamSession[T]{s: s}, nil
}

func (d *domain[T]) NewReusable(opt tiledqr.Options) reusableOps {
	return &reusableSession[T]{opt: opt}
}

// streamSession lifts the generic tiledqr.Stream to the wire level —
// one body for all four precisions, no per-precision adapters.
type streamSession[T vec.Scalar] struct{ s *tiledqr.Stream[T] }

func (w *streamSession[T]) Append(ctx context.Context, batch, rhs *Matrix) error {
	if rhs != nil {
		return w.s.AppendRHSCtx(ctx, decode[T](batch), decode[T](rhs))
	}
	return w.s.AppendRowsCtx(ctx, decode[T](batch))
}

func (w *streamSession[T]) Downdate(ctx context.Context, k int) (int64, error) {
	if err := w.s.DowndateRowsCtx(ctx, k); err != nil {
		return 0, err
	}
	return w.s.Rows(), nil
}

func (w *streamSession[T]) Rows() int64 { return w.s.Rows() }
func (w *streamSession[T]) N() int      { return w.s.N() }

func (w *streamSession[T]) Solve() (*Matrix, float64, error) {
	x, err := w.s.SolveLS()
	if err != nil {
		return nil, 0, err
	}
	resid, err := w.s.ResidualNorm()
	if err != nil {
		return nil, 0, err
	}
	return encode(x), resid, nil
}

func (w *streamSession[T]) R() (*Matrix, error) {
	r, err := w.s.R()
	if err != nil {
		return nil, err
	}
	return encode(r), nil
}

// reusableSession lifts one FactorIntoOf target to the wire level.
type reusableSession[T vec.Scalar] struct {
	f   tiledqr.QR[T]
	opt tiledqr.Options
}

func (w *reusableSession[T]) Submit(ctx context.Context, a, rhs *Matrix) (*Matrix, int, error) {
	if rhs != nil && a.Rows < a.Cols {
		return nil, 0, fmt.Errorf("least squares wants rows ≥ cols, got %d×%d", a.Rows, a.Cols)
	}
	if rhs != nil && rhs.Rows != a.Rows {
		return nil, 0, fmt.Errorf("right-hand side has %d rows, matrix has %d", rhs.Rows, a.Rows)
	}
	if err := tiledqr.FactorIntoOf(ctx, &w.f, decode[T](a), w.opt); err != nil {
		return nil, 0, err
	}
	if rhs == nil {
		return encode(w.f.R()), w.f.TaskCount(), nil
	}
	x, err := w.f.SolveLSCtx(ctx, decode[T](rhs))
	if err != nil {
		return nil, 0, err
	}
	return encode(x), w.f.TaskCount(), nil
}

// domains maps the wire precision tag to its ops.
var domains = map[string]ops{
	"d": &domain[float64]{},
	"z": &domain[complex128]{},
	"s": &domain[float32]{},
	"c": &domain[complex64]{},
}

// opsFor resolves a request's precision tag ("" defaults to double).
func opsFor(tag string) (ops, error) {
	if tag == "" {
		tag = "d"
	}
	o, ok := domains[strings.ToLower(tag)]
	if !ok {
		return nil, fmt.Errorf("unknown precision %q (want d, z, s or c)", tag)
	}
	return o, nil
}
