package stream

import (
	"context"
	"fmt"

	"tiledqr/internal/engine"
	"tiledqr/internal/vec"
)

// A retaining stream is a queue of row blocks whose aggregate must be
// readable at any time — the sliding-window-aggregation problem, solved
// with two stacks. The blocks appended since the last flip sit in hist and
// are aggregated in back by ordinary merges, a tile row or more of rows at
// a time. The older blocks sit in front, cut newest to oldest into chunks
// of at least n rows (the oldest chunk more finely, by tile row);
// checkpoint j holds the suffix aggregate of chunk j and every newer chunk
// of front, built by merging chunk j's rows into a copy of checkpoint j−1.
// Evicting the oldest rows is then bookkeeping: shorten or pop the oldest
// block, drop the one checkpoint whose rows changed, pop it when its chunk
// is gone. When front runs empty, hist becomes the new front and back
// starts again from nothing (the flip).
//
// Nothing in front is merged until a read needs it: the checkpoints a read
// finds missing are built then, newest first, and the rows of chunks
// evicted between two reads are never re-merged at all. Each retained row
// is merged at most twice — once into back, once into a checkpoint — plus,
// for the less than a tile row of survivors in the oldest chunk, once per
// read that follows an eviction; every read after a mutation also costs one
// triangle-on-triangle merge of the front's aggregate into a copy of back.
// Aggregates are only ever built by orthogonal merges of rows that are
// still retained, so nothing cancels, nothing can break down, and rounding
// error does not accumulate across slides. Memory is the retained rows plus
// one aggregate (~0.6·n²) per checkpoint: at most about twice the rows,
// plus O(q·n²).

// block is one retained batch: a compact copy of its rows (and RHS rows
// when the stream tracks them), the range of them not yet evicted, and the
// forgetting weight accumulated since it was appended.
type block[T vec.Scalar] struct {
	data      []T // as appended: stride n; capacity is kept for reuse
	rhs       []T // stride nrhs (empty when no RHS is tracked)
	off, rows int // rows [off, off+rows) survive
	scale     float64
}

// checkpoint covers blocks consecutive blocks of front. agg aggregates their
// surviving rows and every newer row of front; it is nil until a read needs
// it, and again once eviction reaches into the chunk.
type checkpoint[T vec.Scalar] struct {
	blocks int
	agg    *agg[T]
}

// putAgg recycles an aggregate (nil is a no-op).
func (c *Core[T]) putAgg(a *agg[T]) {
	if a != nil {
		c.freeAggs = append(c.freeAggs, a)
	}
}

// invalidate drops the cached view: the represented rows are about to change.
func (c *Core[T]) invalidate() {
	if c.view != c.back {
		c.putAgg(c.view)
	}
	c.view = nil
}

// appendRetained is Append for a retaining stream, past validation. A
// sliding window first evicts the rows the batch pushes out — bookkeeping
// only, and done before anything is merged so that the batch lands behind
// whatever the eviction had to flip to the front. The batch is copied into
// the row history, in a recycled buffer when one is free, and merged into
// back once at least a tile row of rows is pending there: a run of small
// batches pays one merge of their sum, not the DAG's fixed cost each.
func (c *Core[T]) appendRetained(ctx context.Context, r int, data []T, ld int, rhs []T, ldr int) error {
	c.invalidate()
	if over := c.rows + int64(r) - int64(c.window); c.window > 0 && over > 0 {
		c.evict(int(min(over, c.rows)))
	}
	var b block[T]
	if k := len(c.freeBlocks); k > 0 {
		b, c.freeBlocks = c.freeBlocks[k-1], c.freeBlocks[:k-1]
	}
	n, nrhs := c.n, c.nrhs
	b.data, b.rhs = grow(b.data, r*n), grow(b.rhs, r*nrhs)
	b.off, b.rows, b.scale = 0, r, 1
	for i := 0; i < r; i++ {
		copy(b.data[i*n:(i+1)*n], data[i*ld:i*ld+n])
		copy(b.rhs[i*nrhs:(i+1)*nrhs], rhs[i*ldr:])
	}
	c.hist = append(c.hist, b)
	c.rows += int64(r)
	c.pending++
	if c.pendingRows += r; c.pendingRows >= c.nb {
		if err := c.flush(ctx); err != nil {
			return err
		}
	}
	if c.window > 0 && c.rows > int64(c.window) { // the batch alone overflows the window
		c.evict(int(c.rows) - c.window)
	}
	return nil
}

// flush merges the pending blocks into back as one batch. The merge DAG
// mutates its target in place, so a failure leaves it partially
// transformed: poison.
func (c *Core[T]) flush(ctx context.Context) error {
	if c.pending == 0 {
		return nil
	}
	err := c.mergeChunk(ctx, c.back, c.hist[len(c.hist)-c.pending:])
	c.pending, c.pendingRows = 0, 0
	if err != nil {
		return c.poisoned(err)
	}
	return nil
}

// Downdate removes the oldest k retained rows from the represented system:
// the inverse of Append over those rows. It requires retention
// (Config.Window != 0) and does no arithmetic — the rows leave the history
// and the next read re-merges what survives of their chunk.
func (c *Core[T]) Downdate(k int) error {
	if c.err != nil {
		return c.err
	}
	if c.window == 0 {
		return fmt.Errorf("tiledqr: DowndateRows: stream retains no row history (construct it with Options.WindowRows set to a window size or RetainAll)")
	}
	if k < 1 {
		return fmt.Errorf("tiledqr: DowndateRows: must remove at least one row (k=%d)", k)
	}
	if int64(k) > c.rows {
		return fmt.Errorf("tiledqr: DowndateRows: cannot remove %d rows, only %d are represented", k, c.rows)
	}
	c.invalidate()
	c.evict(k)
	return nil
}

// evict drops the oldest k ≤ rows retained rows. The caller has invalidated
// the view.
func (c *Core[T]) evict(k int) {
	c.rows -= int64(k)
	for k > 0 {
		if len(c.front) == 0 {
			c.flip()
		}
		b := &c.front[len(c.front)-1]
		top := &c.stack[len(c.stack)-1]
		drop := min(k, b.rows)
		b.off, b.rows, k = b.off+drop, b.rows-drop, k-drop
		c.putAgg(top.agg) // it aggregated the rows just dropped
		top.agg = nil
		if b.rows == 0 {
			c.freeBlocks = append(c.freeBlocks, *b)
			c.front = c.front[:len(c.front)-1]
			if top.blocks--; top.blocks == 0 {
				c.stack = c.stack[:len(c.stack)-1]
				c.refine()
			}
		}
	}
}

// flip moves every block of hist to the (empty) front, newest first, cuts
// them into chunks of at least n rows and restarts back from no rows. No
// checkpoint is built yet; in particular the old back, which aggregates
// exactly the new front, is not kept: flip runs because its oldest row is
// leaving.
func (c *Core[T]) flip() {
	for i := len(c.hist) - 1; i >= 0; i-- {
		c.front = append(c.front, c.hist[i])
	}
	c.hist, c.pending, c.pendingRows = c.hist[:0], 0, 0
	c.back.set(nil)
	c.cut(c.front, c.n)
	c.refine()
}

// cut pushes checkpoints over blocks (newest first), one per run of at
// least spacing rows; an oldest remainder shorter than that joins its
// neighbour.
func (c *Core[T]) cut(blocks []block[T], spacing int) {
	first, rows, run := len(c.stack), 0, 0
	for i := range blocks {
		rows += blocks[i].rows
		if run++; rows >= spacing {
			c.stack = append(c.stack, checkpoint[T]{blocks: run})
			rows, run = 0, 0
		}
	}
	if len(c.stack) == first {
		c.stack = append(c.stack, checkpoint[T]{})
	}
	c.stack[len(c.stack)-1].blocks += run
}

// refine re-cuts the oldest chunk, the one eviction is about to eat into,
// at one tile row (nb rows) per checkpoint: a read after an eviction then
// re-merges less than nb surviving rows of the boundary chunk, not up to a
// whole chunk of them, for q more aggregates in all.
func (c *Core[T]) refine() {
	if top := len(c.stack) - 1; top >= 0 && c.stack[top].blocks > 1 {
		cp := c.stack[top]
		c.stack = c.stack[:top]
		c.cut(c.front[len(c.front)-cp.blocks:], min(c.nb, c.n))
		c.stack[len(c.stack)-1].agg = cp.agg
	}
}

// resident returns the aggregate of every represented row — what R, QTB,
// SolveLS and ResidualNorm serve — building it if a mutation made it stale:
// back itself while front is empty, otherwise the oldest checkpoint merged
// into a copy of back. A failed merge poisons the stream.
func (c *Core[T]) resident() (*agg[T], error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.view != nil {
		return c.view, nil
	}
	if err := c.flush(nil); err != nil {
		return nil, err
	}
	if len(c.front) == 0 {
		c.view = c.back
		return c.view, nil
	}
	// Build the missing checkpoints, newest chunk first: each is the one
	// before it plus its own chunk's surviving rows.
	lo := 0
	for j := range c.stack {
		cp := &c.stack[j]
		if cp.agg == nil {
			cp.agg = c.getAgg()
			var newer *agg[T]
			if j > 0 {
				newer = c.stack[j-1].agg
			}
			cp.agg.set(newer)
			if err := c.mergeChunk(nil, cp.agg, c.front[lo:lo+cp.blocks]); err != nil {
				return nil, c.poisoned(err)
			}
		}
		lo += cp.blocks
	}
	v := c.getAgg()
	v.set(c.back)
	if err := c.mergeAgg(nil, v, c.stack[len(c.stack)-1].agg); err != nil {
		return nil, c.poisoned(err)
	}
	c.view = v
	return v, nil
}

// mergeChunk merges the surviving rows of consecutive blocks into dst as
// one batch: a lone block straight from its buffer, several gathered at
// their weights — one merge of their sum costs what a single append of
// that many rows does, where a merge per block would pay the DAG's fixed
// cost per row for one-row batches.
func (c *Core[T]) mergeChunk(ctx context.Context, dst *agg[T], chunk []block[T]) error {
	n, nrhs := c.n, c.nrhs
	if len(chunk) == 1 {
		b := &chunk[0]
		return c.merge(ctx, dst, b.rows, b.data[b.off*n:], n, b.rhs[b.off*nrhs:], nrhs, b.scale)
	}
	rows := 0
	for i := range chunk {
		rows += chunk[i].rows
	}
	c.gather = grow(c.gather, rows*(n+nrhs))
	data, rhs := c.gather[:rows*n], c.gather[rows*n:]
	at := 0
	for i := range chunk {
		b := &chunk[i]
		engine.ScaleCopy(data[at*n:], b.data[b.off*n:(b.off+b.rows)*n], b.scale)
		engine.ScaleCopy(rhs[at*nrhs:], b.rhs[b.off*nrhs:(b.off+b.rows)*nrhs], b.scale)
		at += b.rows
	}
	return c.merge(ctx, dst, rows, data, n, rhs, nrhs, 1)
}
