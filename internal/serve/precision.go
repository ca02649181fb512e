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
// (tiledqr.FactorIntoOf, tiledqr.Stream[T]) directly. The only
// per-precision code in the package is the four-entry domains table.

// ops is one precision's view of the library, expressed over wire matrices.
type ops interface {
	// Precision returns the wire tag: "d", "z", "s" or "c".
	Precision() string
	// CheckMatrix validates a wire matrix for this domain.
	CheckMatrix(m *Matrix, maxElems int) error
	// NewStream opens a streaming session over n columns. opt may carry
	// WindowRows/Forget for windowed or forgetful streams.
	NewStream(n int, opt tiledqr.Options) (streamOps, error)
	// Factor is the one place the server factors anything. It factors a,
	// counting it in st once it has been handed to the runtime. With a nil
	// gather the result is R alone. Otherwise gather is called once, after
	// the factorization has returned — a factorization does not depend on
	// its right-hand sides, so whoever collects them has the whole factor
	// time to do it — and the result is the solution of min‖a·x − b‖₂ for
	// every b it returns, index-aligned, from one multi-column SolveLS. The
	// callers have checked the shapes (checkLS). The int is the task count.
	Factor(ctx context.Context, a *Matrix, opt tiledqr.Options, gather func() []*Matrix, st *serverStats) ([]*Matrix, int, error)
}

// streamOps is a precision-blind streaming session.
type streamOps interface {
	Append(ctx context.Context, batch, rhs *Matrix) error
	Rows() int64
	Solve() (*Matrix, float64, error)
}

// domain is the one generic ops implementation.
type domain[T vec.Scalar] struct{}

func (d *domain[T]) Precision() string { return vec.Prec[T]().Tag() }

func (d *domain[T]) CheckMatrix(m *Matrix, maxElems int) error {
	return m.check(vec.IsComplex[T](), maxElems)
}

func (d *domain[T]) NewStream(n int, opt tiledqr.Options) (streamOps, error) {
	s, err := tiledqr.NewStreamOf[T](n, opt)
	if err != nil {
		return nil, err
	}
	return &streamSession[T]{s: s}, nil
}

func (d *domain[T]) Factor(ctx context.Context, a *Matrix, opt tiledqr.Options, gather func() []*Matrix, st *serverStats) ([]*Matrix, int, error) {
	var f tiledqr.QR[T]
	err := tiledqr.FactorIntoOf(ctx, &f, decode[T](a), opt)
	// Options the library refuses are refused before a DAG exists, and a
	// target that has never had a DAG reports no tasks.
	if err == nil || f.TaskCount() > 0 {
		st.factorizations.Add(1)
	}
	if err != nil {
		return nil, 0, err
	}
	if gather == nil {
		return []*Matrix{encode(f.R())}, f.TaskCount(), nil
	}
	rhs := gather()
	widths := make([]int, len(rhs))
	for k, b := range rhs {
		widths[k] = b.Cols
	}
	x, err := f.SolveLSCtx(ctx, hcat[T](rhs))
	if err != nil {
		return nil, 0, err
	}
	return splitCols(x, widths), f.TaskCount(), nil
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

func (w *streamSession[T]) Rows() int64 { return w.s.Rows() }

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
