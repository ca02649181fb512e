// The worker side of the distributed CAQR runtime: one process (or
// goroutine) owning a row shard of the global matrix and one node of the
// binomial TSQR reduction tree. A worker is a stream.Core (TT kernels, on
// the worker's own scheduler runtime) reused across rounds: a round resets
// it, appends the shard with its RHS rows — the stream's replay folds Qᵀb
// and the residual — merges the aggregates of its tree children and ships
// its own to its parent, or from rank 0 to the coordinator. Workers run
// their rounds without waiting for the coordinator; a sender that has
// queued its aggregate starts the next round at once, so with Rounds > 1
// the wire time can hide behind the next append, and the per-worker stats
// measure how much of it did.
package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/sched"
	"tiledqr/internal/stream"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// peerLossGrace bounds how long a worker whose tree edge failed waits for
// the coordinator connection to report a loss before it reports the edge.
const peerLossGrace = 500 * time.Millisecond

// RunWorker connects to a coordinator, runs the configured shard to
// completion, and returns. It is the body of `qrdist -connect` and of the
// in-process workers bench/ and the tests spawn as goroutines. Cancelling
// ctx, or losing the coordinator connection, aborts the run mid-round; the
// error then names the cause.
func RunWorker(ctx context.Context, coordAddr string) error {
	conn, err := net.DialTimeout("tcp", coordAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dist: worker dialing coordinator: %w", err)
	}
	defer conn.Close()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	context.AfterFunc(ctx, func() { _ = conn.Close() })
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: worker peer listener: %w", err)
	}
	defer peerLn.Close()
	setDeadline(conn, 30*time.Second)
	if err := writeJSON(conn, KindHello, 0, helloMsg{Proto: protoVersion, PeerAddr: peerLn.Addr().String()}); err != nil {
		return err
	}
	var cfg wireConfig
	if _, err := readJSON(conn, nil, KindConfig, &cfg); err != nil {
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	setDeadline(conn, 0)
	if cfg.Proto != protoVersion {
		return fmt.Errorf("dist: protocol version mismatch: coordinator %d, worker %d", cfg.Proto, protoVersion)
	}
	var run func(context.Context, context.CancelCauseFunc, net.Conn, *wireConfig, net.Listener) error
	switch cfg.Prec {
	case "s":
		run = runShard[float32]
	case "d":
		run = runShard[float64]
	case "c":
		run = runShard[complex64]
	case "z":
		run = runShard[complex128]
	default:
		return fmt.Errorf("dist: unknown precision %q", cfg.Prec)
	}
	if err := run(ctx, cancel, conn, &cfg, peerLn); err != nil {
		if errors.As(err, new(peerLinkError)) {
			// The coordinator closes the workers' connections one after
			// another, so a peer may see its loss, abort and break the
			// tree edge before this worker's watch sees its own. Give the
			// watch a moment, so that the error names the cause.
			select {
			case <-ctx.Done():
			case <-time.After(peerLossGrace):
			}
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		// Best effort: tell the coordinator why before disconnecting.
		_ = writeJSON(conn, KindErr, 0, errMsg{Rank: cfg.Rank, Error: err.Error()})
		return err
	}
	return nil
}

// watch reads the coordinator connection for the rest of the run. The
// coordinator sends one more frame, Done, after every worker's stats; any
// other outcome cancels ctx with its cause, so the append, a merge and
// every peer wait abort mid-round.
func watch(conn net.Conn, cancel context.CancelCauseFunc, done chan<- struct{}) {
	f, _, err := ReadFrame(conn, nil)
	switch {
	case err != nil:
		cancel(fmt.Errorf("dist: coordinator connection lost: %w", err))
	case f.Kind != KindDone:
		cancel(fmt.Errorf("dist: unexpected frame kind %d from coordinator", f.Kind))
	default:
		close(done)
	}
}

// runShard executes one worker's rounds at a concrete precision.
func runShard[T vec.Scalar](ctx context.Context, cancel context.CancelCauseFunc, conn net.Conn, cfg *wireConfig, peerLn net.Listener) error {
	rank, W, n, nrhs := cfg.Rank, cfg.Workers, cfg.N, cfg.NRHS
	rt := sched.NewRuntime(cfg.LocalWorkers)
	defer rt.Close()

	// Shard data, shipped once by the coordinator.
	shard := tile.NewDense[T](cfg.ShardRows, n)
	fr, buf, err := ReadFrame(conn, nil)
	if err != nil || fr.Kind != KindShard {
		return fmt.Errorf("dist: rank %d reading shard: kind=%d err=%w", rank, fr.Kind, err)
	}
	if err := unpackDense(shard.Data, shard.Stride, &fr); err != nil {
		return err
	}
	nd := &node[T]{r: make([]T, n*n)}
	var rhs []T
	if nrhs > 0 {
		rhs, nd.qtb = make([]T, cfg.ShardRows*nrhs), make([]T, n*nrhs)
		fr, _, err = ReadFrame(conn, buf)
		if err != nil || fr.Kind != KindRHS {
			return fmt.Errorf("dist: rank %d reading rhs: kind=%d err=%w", rank, fr.Kind, err)
		}
		if err := unpackDense(rhs, nrhs, &fr); err != nil {
			return err
		}
	}
	nd.core, err = stream.NewCore[T](n, stream.Config{
		NB: cfg.NB, IB: cfg.IB, Kernels: core.TT, Env: engine.Env{Runtime: rt},
	})
	if err != nil {
		return err
	}

	done := make(chan struct{})
	go watch(conn, cancel, done)

	rh := newRecvHub(ctx, peerLn)
	var sh *sendHub
	if rank > 0 { // the tree parent is rank − lowbit(rank)
		if sh, err = dialParent(ctx, rank, cfg.Peers[rank&(rank-1)]); err != nil {
			return err
		}
	}

	st := WorkerStats{Rank: rank, ShardRows: cfg.ShardRows}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		t0 := time.Now()
		nd.core.Reset()
		if err := nd.core.Append(ctx, cfg.ShardRows, shard.Data, n, rhs, nrhs, nrhs); err != nil {
			return fmt.Errorf("dist: rank %d round %d: %w", rank, r, err)
		}
		st.ComputeNS += int64(time.Since(t0))

		if err := treeRound(ctx, nd, sh, rh, &st, rank, W, uint32(r)); err != nil {
			return err
		}
		if rank == 0 {
			// The tree root ships the global aggregate to the coordinator;
			// this send is on the round's critical path only for the
			// coordinator, not for the next local append.
			t0 := time.Now()
			buf, err := nd.pack(uint32(r))
			if err != nil {
				return err
			}
			nw, err := conn.Write(buf)
			putBuf(buf)
			st.BytesSent += int64(nw)
			if err != nil {
				return fmt.Errorf("dist: coordinator connection lost: %w", err)
			}
			st.SendNS += int64(time.Since(t0))
		}
		st.Rounds++
	}
	st.WallNS = int64(time.Since(start))
	if sh != nil {
		if err := sh.close(); err != nil {
			return err
		}
		st.SendNS += sh.sendNS
		st.BytesSent += sh.bytesSent
	}
	st.BytesRecv += rh.bytesRecv.Load()
	if err := writeJSON(conn, KindStats, uint32(st.Rounds), &st); err != nil {
		return fmt.Errorf("dist: coordinator connection lost: %w", err)
	}
	// Done follows once every worker has reported; a coordinator that
	// abandons the run drops the connection instead, which cancels ctx.
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// node is a worker's place in the reduction tree: its Core, and the dense
// R and Qᵀb buffers aggregates pass through between the Core and the wire.
type node[T vec.Scalar] struct {
	core   *stream.Core[T]
	r, qtb []T // n×n, row stride n; n×nrhs, row stride nrhs (nil when nrhs = 0)
}

// pack frames the Core's aggregate as round seq's (pooled buffer).
func (nd *node[T]) pack(seq uint32) ([]byte, error) {
	c := nd.core
	if err := c.CopyR(nd.r, c.N()); err != nil {
		return nil, err
	}
	if err := c.CopyQTB(nd.qtb, c.NRHS()); err != nil {
		return nil, err
	}
	resid, err := c.ResidualNorm()
	if err != nil {
		return nil, err
	}
	return packAgg(seq, c.N(), c.NRHS(), nd.r, nd.qtb, resid, c.Rows()), nil
}

// treeRound runs one round of the binomial reduction tree for this rank:
// at each level the rank is a pivot (receive its partner's aggregate and
// merge it), a sender (queue its aggregate for its parent, the pivot of that
// level, and finish the round — the sender is then free to start its next
// append while the frame is in flight), or idle at that level (no partner
// in range).
func treeRound[T vec.Scalar](ctx context.Context, nd *node[T], sh *sendHub, rh *recvHub, st *WorkerStats, rank, W int, seq uint32) error {
	for step := 1; step < W; step <<= 1 {
		switch {
		case rank%(2*step) == step:
			buf, err := nd.pack(seq)
			if err != nil {
				return err
			}
			return sh.send(buf)
		case rank%(2*step) == 0 && rank+step < W:
			partner := rank + step
			t0 := time.Now()
			f, buf, err := rh.recv(partner)
			st.RecvWaitNS += int64(time.Since(t0))
			if err != nil {
				return err
			}
			if f.Kind != KindAgg || f.Seq != seq {
				putBuf(buf)
				return fmt.Errorf("dist: rank %d expected the aggregate of round %d from rank %d, got kind=%d seq=%d",
					rank, seq, partner, f.Kind, f.Seq)
			}
			c0 := time.Now()
			n, nrhs := nd.core.N(), nd.core.NRHS()
			resid, rows, err := unpackAgg(&f, n, nrhs, nd.r, nd.qtb)
			putBuf(buf)
			if err == nil {
				err = nd.core.Merge(ctx, nd.r, n, nd.qtb, nrhs, resid, rows)
			}
			st.CombineNS += int64(time.Since(c0))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
