package serve

import (
	"bytes"
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"unsafe"

	"tiledqr"
)

// The coalescer lets least-squares solves that share a matrix share its
// factorization. The first request for a (precision, options, matrix) key
// registers a batch and submits the factorization at once; requests with
// the identical matrix that arrive while that factorization is queued or
// running join the batch; when it returns the leader seals the batch, runs
// one multi-column SolveLS over every gathered right-hand side and hands
// each waiter its columns. The gathering window is the factor time, so it
// scales with the matrix and the runtime's backlog by itself, and a request
// whose matrix nobody else is sending waits for nothing. A fleet of clients
// querying one design matrix — the canonical model-serving workload — costs
// one factorization per burst instead of one per request.

// maxBatch bounds one batch; a request that finds its batch full leads the
// next one.
const maxBatch = 16

// errLeaderFailed is what a batch's waiters get when its leader leaves
// without a result and without an error of its own (it panicked).
var errLeaderFailed = errors.New("batch leader failed")

// coalesceKey finds the solves that may share a factorization: the same
// precision, the option fields that change a factorization's result or
// plan, the same shape. The hash is only a way into the map: what keeps two
// different matrices apart is the comparison with the leader's matrix on
// every hit.
type coalesceKey struct {
	prec        string
	algorithm   tiledqr.Algorithm
	kernels     tiledqr.Kernels
	tileSize    int
	innerBlock  int
	checkHealth bool
	rows, cols  int
	hash        uint64
}

// dataBytes views a wire matrix's values as the bytes they occupy, so that
// hashing and comparing them are one library call each and are exact: +0
// and −0 differ.
func dataBytes(m *Matrix) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m.Data))), 8*len(m.Data))
}

// solveWaiter is one request's slot in a batch; the leader fills it before
// done closes.
type solveWaiter struct {
	rhs  *Matrix
	x    *Matrix
	size int // batch size, for the response's coalesced count
	err  error
}

// solveBatch is one in-flight batch. It admits waiters for as long as it is
// in the pending map; waiters is guarded by the coalescer's lock until then
// and is the leader's alone afterwards.
type solveBatch struct {
	a       *Matrix // the leader's matrix, never written
	waiters []*solveWaiter
	done    chan struct{}
}

// coalescer groups concurrent same-key solves.
type coalescer struct {
	seed maphash.Seed

	mu      sync.Mutex
	pending map[coalesceKey]*solveBatch
}

func newCoalescer() *coalescer {
	return &coalescer{seed: maphash.MakeSeed(), pending: make(map[coalesceKey]*solveBatch)}
}

func (c *coalescer) key(o ops, a *Matrix, opt tiledqr.Options) coalesceKey {
	return coalesceKey{
		prec:      o.Precision(),
		algorithm: opt.Algorithm, kernels: opt.Kernels,
		tileSize: opt.TileSize, innerBlock: opt.InnerBlock, checkHealth: opt.CheckHealth,
		rows: a.Rows, cols: a.Cols,
		hash: maphash.Bytes(c.seed, dataBytes(a)),
	}
}

// solve runs one solve request through the coalescer. ctx cancels only this
// caller's wait, never a batch another caller leads; the batch itself
// executes under execCtx (the server's base context), so one client
// disconnecting cannot fail its batch-mates.
func (c *coalescer) solve(ctx, execCtx context.Context, o ops, a, rhs *Matrix,
	opt tiledqr.Options, st *serverStats) (x *Matrix, size int, err error) {
	key := c.key(o, a, opt)
	w := &solveWaiter{rhs: rhs}

	c.mu.Lock()
	if b := c.pending[key]; b != nil && len(b.waiters) < maxBatch && bytes.Equal(dataBytes(a), dataBytes(b.a)) {
		b.waiters = append(b.waiters, w)
		c.mu.Unlock()
		select {
		case <-b.done:
			return w.x, w.size, w.err
		case <-ctx.Done():
			// The leader will still solve for us; the result is simply
			// dropped. Returning keeps cancellation prompt.
			return nil, 0, ctx.Err()
		}
	}
	// Nobody to join — or a full batch, or (once in 2⁶⁴) another matrix
	// under the same hash: lead a batch, and take over the key.
	b := &solveBatch{a: a, waiters: []*solveWaiter{w}, done: make(chan struct{})}
	c.pending[key] = b
	c.mu.Unlock()

	// seal closes the batch to joiners, under the lock a joiner takes. It
	// runs when the factorization returns and again on the way out, for the
	// exits that never got that far.
	seal := func() []*solveWaiter {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.pending[key] == b {
			delete(c.pending, key)
		}
		return b.waiters
	}
	var xs []*Matrix
	defer func() {
		waiters := seal()
		if err == nil && len(xs) != len(waiters) {
			err = errLeaderFailed
		}
		for i, wt := range waiters {
			wt.size, wt.err = len(waiters), err
			if err == nil {
				wt.x = xs[i]
			}
		}
		st.batches.Add(1)
		if n := len(waiters); n > 1 {
			st.coalesced.Add(uint64(n))
		}
		close(b.done)
		x, size = w.x, w.size
	}()
	xs, _, err = o.Factor(execCtx, a, opt, func() []*Matrix {
		waiters := seal()
		gathered := make([]*Matrix, len(waiters))
		for i, wt := range waiters {
			gathered[i] = wt.rhs
		}
		return gathered
	}, st)
	return
}
