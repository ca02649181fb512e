package tiledqr

import (
	"context"
	"errors"
	"fmt"

	"tiledqr/internal/stream"
	"tiledqr/internal/tile"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

// errEmptyBatch and errNilRHS are the shape errors shared by every
// stream instantiation.
var (
	errEmptyBatch = errors.New("tiledqr: stream: batch must have at least one row")
	errNilRHS     = errors.New("tiledqr: stream: AppendRHS needs a non-nil right-hand side (use AppendRows)")
)

// streamAppend validates and funnels one batch (with or without a
// right-hand side) into the generic reduction core — the single body
// behind AppendRows/AppendRHS and their Ctx variants.
func streamAppend[T vec.Scalar](ctx context.Context, c *stream.Core[T], batch, rhs *tile.Dense[T], withRHS bool) error {
	if err := c.Err(); err != nil {
		return err
	}
	if batch == nil || batch.Rows < 1 {
		return errEmptyBatch
	}
	if batch.Cols != c.N() {
		return fmt.Errorf("tiledqr: stream: batch has %d columns, stream has %d", batch.Cols, c.N())
	}
	if !withRHS {
		return c.Append(ctx, batch.Rows, batch.Data, batch.Stride, nil, 0, 0)
	}
	if rhs == nil {
		return errNilRHS
	}
	if rhs.Rows != batch.Rows {
		return fmt.Errorf("tiledqr: stream: right-hand side has %d rows, batch has %d", rhs.Rows, batch.Rows)
	}
	return c.Append(ctx, batch.Rows, batch.Data, batch.Stride, rhs.Data, rhs.Stride, rhs.Cols)
}

// Stream is an incremental (streaming) tiled QR factorization over any
// supported scalar domain: rows arrive in batches and only the n×n upper
// triangular factor R — plus, optionally, the top n rows of Qᵀb for online
// least squares — is retained. Without retention, memory stays O(n² +
// batch) no matter how many rows are ingested, so a Stream can absorb
// millions of observations that would never fit as one matrix.
//
// Each batch is tiled, panel-factored with GEQRT, and merged into the
// resident triangle with the paper's triangle-on-triangle kernels — the
// merge primitive of communication-avoiding TSQR (Demmel, Grigori,
// Hoemmen, Langou) — along a task DAG executed by the work-stealing runtime
// with critical-path priorities, so batches spanning several tile rows
// reduce in parallel.
//
// Streams can also unlearn. With Options.WindowRows set, appended rows are
// retained (compactly, outside the triangle) and the stream keeps a
// reduction tree of triangle merges over them — TSQR over a sliding set —
// instead of one irrevocable triangle: DowndateRows revokes the oldest k
// rows, a positive window evicts automatically so the stream always
// represents the most recent WindowRows rows, and Options.Forget decays old
// rows' weight geometrically per append. Eviction drops leaves of the tree
// and costs no arithmetic; the first R, QTB, SolveLS or ResidualNorm after
// one re-merges the surviving triangles, O(n³), and the result is cached
// until the next append or eviction. A windowed append therefore costs what
// a plain one does, plus at most one more merge of each row amortised over
// the reads that follow. Only orthogonal merges of rows still retained are
// ever applied, so the window is as accurate as a one-shot factorization of
// its rows however long it has been sliding — nothing is subtracted,
// nothing can break down. Memory is at most about twice the retained rows
// plus O(n²), whatever the batch size.
//
// Options.TileSize, InnerBlock, Workers, Kernels, WindowRows and Forget
// are honored; Algorithm and BS are ignored (the per-column reduction tree
// of a streaming merge is a binary tree, the optimal shape for
// single-column reductions). A Stream is not safe for concurrent use.
type Stream[T Scalar] struct {
	c *stream.Core[T]
}

// NewStreamOf creates a streaming factorization for rows with n columns in
// the scalar domain T. The triangle starts at zero: a Stream with no
// ingested rows represents the QR factorization of an empty (0×n) matrix.
// Merge DAGs execute under the same placement policy as FactorOf: the
// shared default runtime unless Options.Runtime or Options.Workers says
// otherwise.
func NewStreamOf[T Scalar](n int, opt Options) (*Stream[T], error) {
	if err := opt.validateStream(); err != nil {
		return nil, err
	}
	// AlgorithmAuto picks the tile shape for streams too: the per-column
	// merge tree is structurally fixed (binary), so the tuner only chooses
	// nb/ib — by estimated merge throughput at the stream's width — while
	// Options.Kernels keeps selecting the merge kernel family.
	if opt.Algorithm == AlgorithmAuto && n >= 1 {
		// Pinned sizes obey the same constraints as explicit ones (matching
		// resolveAuto): an inner block wider than a pinned tile is an
		// error, not a silent clamp.
		if opt.TileSize > 0 {
			if err := opt.validateSizes(); err != nil {
				return nil, err
			}
		}
		dec, err := tune.ResolveStream[T](n, opt.autoWidth(),
			opt.TileSize, opt.InnerBlock, opt.Kernels.core())
		if err != nil {
			return nil, err
		}
		opt.Algorithm = Greedy // streams ignore the tree; record a concrete value
		opt.TileSize, opt.InnerBlock = dec.NB, dec.IB
	}
	opt = opt.withDefaults()
	if err := opt.validateSizes(); err != nil {
		return nil, err
	}
	c, err := stream.NewCore[T](n, stream.Config{
		NB:      opt.TileSize,
		IB:      opt.InnerBlock,
		Kernels: opt.Kernels.core(),
		Env:     opt.execEnv(),
		Check:   opt.CheckHealth,
		Window:  opt.WindowRows,
		Forget:  opt.Forget,
	})
	if err != nil {
		return nil, err
	}
	return &Stream[T]{c: c}, nil
}

// AppendRows merges a batch of rows (r×n, any r ≥ 1) into the resident
// triangle. The batch is not modified. Returns an error if the stream
// tracks right-hand sides (use AppendRHS so Qᵀb stays consistent).
func (s *Stream[T]) AppendRows(batch *Mat[T]) error {
	return streamAppend(nil, s.c, (*tile.Dense[T])(batch), nil, false)
}

// AppendRowsCtx is AppendRows under a cancellation context: a merge
// cancelled mid-DAG leaves the resident triangle partially transformed, so
// the stream fails permanently (see Err). A nil ctx behaves like AppendRows.
func (s *Stream[T]) AppendRowsCtx(ctx context.Context, batch *Mat[T]) error {
	return streamAppend(ctx, s.c, (*tile.Dense[T])(batch), nil, false)
}

// AppendRHS merges a batch of rows together with the matching right-hand
// side rows (r×nrhs), maintaining the top n rows of Qᵀb for SolveLS.
// Right-hand sides must be supplied from the first batch onwards and keep
// the same column count; neither argument is modified.
func (s *Stream[T]) AppendRHS(batch, rhs *Mat[T]) error {
	return streamAppend(nil, s.c, (*tile.Dense[T])(batch), (*tile.Dense[T])(rhs), true)
}

// AppendRHSCtx is AppendRHS under a cancellation context (see
// AppendRowsCtx).
func (s *Stream[T]) AppendRHSCtx(ctx context.Context, batch, rhs *Mat[T]) error {
	return streamAppend(ctx, s.c, (*tile.Dense[T])(batch), (*tile.Dense[T])(rhs), true)
}

// DowndateRows removes the oldest k rows from the represented system — the
// inverse of appending them. It requires retention: construct the stream
// with Options.WindowRows set to a positive window or RetainAll. The rows
// leave the retained history and nothing is computed; the next read
// re-merges what survives (only the block k lands inside is re-reduced row
// by row, every other one through triangles already built), so a
// successful DowndateRows always leaves the stream exactly representing the
// remaining rows. Validation failures leave the stream untouched.
func (s *Stream[T]) DowndateRows(k int) error {
	return s.c.Downdate(k)
}

// Forget applies one exponential-forgetting step immediately: the
// represented system is scaled so every past row's weight decays by
// √lambda (its contribution to RᵀR by lambda), with lambda ∈ (0, 1].
// This is the manual form of Options.Forget, which applies the same decay
// before every append; lambda = 1 is a no-op.
func (s *Stream[T]) Forget(lambda float64) error {
	return s.c.Forget(lambda)
}

// Err returns the stream's sticky failure: nil while the stream is healthy,
// and the original cause once an append failed, panicked, or was cancelled
// mid-merge. A failed stream's retained state is partially transformed, so
// every accessor and later append returns this error; further appends are
// unsupported — replace the stream.
func (s *Stream[T]) Err() error { return s.c.Err() }

// R returns the n×n upper triangular factor of the rows currently
// represented (ingested minus downdated, with forgetting weights applied).
// It equals (up to row signs) the R of a one-shot Factor over the same
// weighted rows. After a failure, R returns the original error.
func (s *Stream[T]) R() (*Mat[T], error) {
	n := s.c.N()
	r := NewMat[T](n, n)
	if err := s.c.CopyR(r.Data, r.Stride); err != nil {
		return nil, err
	}
	return r, nil
}

// QTB returns the retained top n rows of Qᵀb (n×nrhs), or nil when the
// stream tracks no right-hand side. After a failure, QTB returns the
// original error.
func (s *Stream[T]) QTB() (*Mat[T], error) {
	if err := s.c.Err(); err != nil {
		return nil, err
	}
	if s.c.NRHS() == 0 {
		return nil, nil
	}
	q := NewMat[T](s.c.N(), s.c.NRHS())
	if err := s.c.CopyQTB(q.Data, q.Stride); err != nil {
		return nil, err
	}
	return q, nil
}

// SolveLS returns the n×nrhs least-squares solution min‖A·x − b‖₂ over the
// rows currently represented, without ever having materialized A or b.
// Requires right-hand-side tracking and at least n represented rows.
func (s *Stream[T]) SolveLS() (*Mat[T], error) {
	x := NewMat[T](s.c.N(), max(s.c.NRHS(), 1))
	if err := s.c.SolveLS(x.Data, x.Stride); err != nil {
		return nil, err
	}
	return x, nil
}

// Rows returns the number of rows the stream currently represents: every
// row ingested minus every row downdated away.
func (s *Stream[T]) Rows() int64 { return s.c.Rows() }

// N returns the column count of the streamed system.
func (s *Stream[T]) N() int { return s.c.N() }

// ResidualNorm returns the running least-squares residual of the
// represented system: ‖b − A·X‖_F over all tracked right-hand-side columns
// (0 when no RHS is tracked). The components of Qᵀb rotated beyond the
// retained top block accumulate here instead of being stored — per
// aggregate of a windowed stream's tree, so nothing cancels when rows
// leave. After a failure, ResidualNorm returns the original error.
func (s *Stream[T]) ResidualNorm() (float64, error) { return s.c.ResidualNorm() }

// Footprint returns the number of scalars retained across appends — the
// memory bound made observable for tests and capacity planning: O(n²)
// without retention, the retained rows plus one triangle per n of them
// (and buffers waiting for reuse) with it. Per-append staging is pooled
// across all streams of a domain and is not counted.
func (s *Stream[T]) Footprint() int { return s.c.Footprint() }
