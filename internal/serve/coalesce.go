package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"tiledqr"
)

// The coalescer batches many small least-squares solves that share the same
// matrix into one DAG submission: the first request for a given (precision,
// options, matrix) key becomes the batch leader, waits a short window for
// followers, then factors the matrix once and solves every gathered
// right-hand side in a single multi-column SolveLS. A fleet of clients
// querying one design matrix — the canonical model-serving workload — costs
// one factorization per window instead of one per request, and the runtime
// sees one well-shaped job instead of many duplicates. Requests whose
// matrices differ simply form single-member batches.

// coalesceKey identifies solves that may share a factorization.
type coalesceKey struct {
	prec string
	opt  optKey
	hash [sha256.Size]byte
}

// optKey is the comparable fingerprint of the option fields that change a
// factorization's result or plan.
type optKey struct {
	algorithm   tiledqr.Algorithm
	kernels     tiledqr.Kernels
	tileSize    int
	innerBlock  int
	checkHealth bool
}

func optKeyOf(o tiledqr.Options) optKey {
	return optKey{
		algorithm:   o.Algorithm,
		kernels:     o.Kernels,
		tileSize:    o.TileSize,
		innerBlock:  o.InnerBlock,
		checkHealth: o.CheckHealth,
	}
}

// hashMatrix fingerprints a wire matrix's exact bit pattern. The values are
// fed to SHA-256 a block of 512 at a time: one Write per value spends more
// time entering the hash than hashing.
func hashMatrix(m *Matrix) [sha256.Size]byte {
	h := sha256.New()
	var buf [4096]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Cols))
	n := 16
	for _, v := range m.Data {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
		n += 8
	}
	h.Write(buf[:n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// solveWaiter is one request's slot in a batch.
type solveWaiter struct {
	rhs  *Matrix
	x    *Matrix // filled by the leader before done closes
	size int     // batch size, for the response's coalesced count
	err  error
}

// solveBatch is one in-flight batch: the leader owns the timer and the
// submission; followers append under mu and wait on done.
type solveBatch struct {
	mu      sync.Mutex
	sealed  bool
	waiters []*solveWaiter
	done    chan struct{}
}

// coalescer groups concurrent same-key solves. window == 0 disables
// batching (every request is its own leader with no wait).
type coalescer struct {
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	pending map[coalesceKey]*solveBatch
}

func newCoalescer(window time.Duration, maxBatch int) *coalescer {
	if maxBatch < 1 {
		maxBatch = 16
	}
	return &coalescer{window: window, maxBatch: maxBatch, pending: make(map[coalesceKey]*solveBatch)}
}

// solve runs one solve request through the coalescer. ctx cancels only this
// caller's wait, never a batch another caller leads; the batch itself
// executes under execCtx (the server's base context), so one client
// disconnecting cannot fail its batch-mates.
func (c *coalescer) solve(ctx, execCtx context.Context, o ops, a *Matrix, rhs *Matrix,
	opt tiledqr.Options, st *serverStats) (*Matrix, int, error) {
	if c.window <= 0 {
		xs, _, err := o.Solve(execCtx, a, []*Matrix{rhs}, opt)
		st.factorizations.Add(1)
		st.batches.Add(1)
		if err != nil {
			return nil, 0, err
		}
		return xs[0], 1, nil
	}
	key := coalesceKey{prec: o.Precision(), opt: optKeyOf(opt), hash: hashMatrix(a)}
	w := &solveWaiter{rhs: rhs}

	c.mu.Lock()
	if b := c.pending[key]; b != nil {
		b.mu.Lock()
		if !b.sealed && len(b.waiters) < c.maxBatch {
			b.waiters = append(b.waiters, w)
			b.mu.Unlock()
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
		b.mu.Unlock()
		// Sealed or full: fall through and lead a fresh batch for the key.
	}
	b := &solveBatch{waiters: []*solveWaiter{w}, done: make(chan struct{})}
	c.pending[key] = b
	c.mu.Unlock()

	// Lead: give followers the window, then seal and submit.
	timer := time.NewTimer(c.window)
	select {
	case <-timer.C:
	case <-execCtx.Done():
		timer.Stop()
	}
	c.mu.Lock()
	if c.pending[key] == b {
		delete(c.pending, key)
	}
	c.mu.Unlock()
	b.mu.Lock()
	b.sealed = true
	waiters := b.waiters
	b.mu.Unlock()

	rhsList := make([]*Matrix, len(waiters))
	for i, wt := range waiters {
		rhsList[i] = wt.rhs
	}
	xs, _, err := o.Solve(execCtx, a, rhsList, opt)
	st.factorizations.Add(1)
	st.batches.Add(1)
	if n := len(waiters); n > 1 {
		st.coalesced.Add(uint64(n))
	}
	for i, wt := range waiters {
		wt.size = len(waiters)
		if err != nil {
			wt.err = err
		} else {
			wt.x = xs[i]
		}
	}
	close(b.done)
	if w.err != nil {
		return nil, 0, w.err
	}
	return w.x, w.size, nil
}

// String implements fmt.Stringer for debugging.
func (k coalesceKey) String() string {
	return fmt.Sprintf("%s/%x", k.prec, k.hash[:4])
}
