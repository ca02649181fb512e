// The worker side of the distributed CAQR runtime: one process (or
// goroutine) owning a row shard of the global matrix. Each round it runs a
// local tiled QR on the shared in-process runtime — reusing the
// FactorInto arena, DAG and plan across rounds, so steady-state rounds
// allocate nothing — folds Qᵀb for its rows, and feeds its n×n R triangle
// into the binary TTQRT reduction tree. Workers run their rounds without
// waiting for the coordinator; a sender that has queued its R for its
// parent starts the next round at once, so with Rounds > 1 the wire time
// can hide behind local factorization, and the per-worker stats measure
// how much of it did.
package dist

import (
	"context"
	"fmt"
	"net"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

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
// other outcome cancels ctx with its cause, so FactorInto, Apply and every
// peer wait abort mid-round.
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
	var rhs *tile.Dense[T]
	fr, buf, err := ReadFrame(conn, nil)
	if err != nil || fr.Kind != KindShard {
		return fmt.Errorf("dist: rank %d reading shard: kind=%d err=%w", rank, fr.Kind, err)
	}
	if err := unpackDense(shard.Data, shard.Stride, &fr); err != nil {
		return err
	}
	if nrhs > 0 {
		rhs = tile.NewDense[T](cfg.ShardRows, nrhs)
		fr, _, err = ReadFrame(conn, buf)
		if err != nil || fr.Kind != KindRHS {
			return fmt.Errorf("dist: rank %d reading rhs: kind=%d err=%w", rank, fr.Kind, err)
		}
		if err := unpackDense(rhs.Data, rhs.Stride, &fr); err != nil {
			return err
		}
	}

	done := make(chan struct{})
	go watch(conn, cancel, done)

	red := newReducer[T](n, nrhs, cfg.IB)
	rh := newRecvHub(ctx, peerLn)
	var sh *sendHub
	if rank > 0 { // the tree parent is rank − lowbit(rank)
		if sh, err = dialParent(ctx, rank, cfg.Peers[rank&(rank-1)]); err != nil {
			return err
		}
	}

	var f engine.Factorization[T]
	var js sched.JobStats
	engCfg := engine.Config{
		Algorithm: core.Greedy, Kernels: core.TT,
		TileSize: cfg.NB, InnerBlock: cfg.IB,
		Env: engine.Env{Runtime: rt}, Ctx: ctx, Stats: &js,
	}
	var qtbFull *tile.Dense[T]
	if nrhs > 0 {
		qtbFull = tile.NewDense[T](cfg.ShardRows, nrhs)
	}

	st := WorkerStats{Rank: rank, ShardRows: cfg.ShardRows}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		t0 := time.Now()
		if err := engine.FactorInto(&f, shard, engCfg); err != nil {
			return fmt.Errorf("dist: rank %d round %d factor: %w", rank, r, err)
		}
		st.TasksRun += js.Tasks
		st.BusyNS += int64(js.Busy)
		if nrhs > 0 {
			copy(qtbFull.Data, rhs.Data[:cfg.ShardRows*rhs.Stride])
			if err := f.Apply(ctx, qtbFull, true); err != nil {
				return fmt.Errorf("dist: rank %d round %d Qᵀb: %w", rank, r, err)
			}
			for i := 0; i < n; i++ {
				copy(red.qtb[i*nrhs:i*nrhs+nrhs], qtbFull.Data[i*qtbFull.Stride:i*qtbFull.Stride+nrhs])
			}
		}
		if err := f.RInto(red.r, n); err != nil {
			return err
		}
		st.ComputeNS += int64(time.Since(t0))

		if err := treeRound(red, sh, rh, &st, rank, W, nrhs, uint32(r)); err != nil {
			return err
		}
		if rank == 0 {
			// The tree root ships the global R (and Qᵀb top block) to the
			// coordinator; this send is on the round's critical path only
			// for the coordinator, not for the next local factorization.
			t0 := time.Now()
			if err := shipResult(conn, red.packR(uint32(r)), &st); err != nil {
				return err
			}
			if nrhs > 0 {
				if err := shipResult(conn, red.packQTB(uint32(r)), &st); err != nil {
					return err
				}
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

// shipResult writes one framed result (ownership transfers) from the tree
// root to the coordinator.
func shipResult(conn net.Conn, buf []byte, st *WorkerStats) error {
	nw, err := conn.Write(buf)
	putBuf(buf)
	st.BytesSent += int64(nw)
	if err != nil {
		return fmt.Errorf("dist: coordinator connection lost: %w", err)
	}
	return nil
}

// treeRound runs one round of the binomial reduction tree for this rank:
// at each level the rank is a pivot (receive a partner's triangle and
// Qᵀb block, TTQRT/TTMQR them into the resident state), a sender (queue
// the resident state for its parent, the pivot of that level, and finish
// the round —
// the sender is then free to start its next local factorization while the
// frames are in flight), or idle at that level (no partner in range).
func treeRound[T vec.Scalar](red *reducer[T], sh *sendHub, rh *recvHub, st *WorkerStats, rank, W, nrhs int, seq uint32) error {
	for step := 1; step < W; step <<= 1 {
		switch {
		case rank%(2*step) == step:
			if err := sh.send(red.packR(seq)); err != nil {
				return err
			}
			if nrhs > 0 {
				if err := sh.send(red.packQTB(seq)); err != nil {
					return err
				}
			}
			return nil
		case rank%(2*step) == 0 && rank+step < W:
			partner := rank + step
			t0 := time.Now()
			f, buf, err := rh.recv(partner)
			st.RecvWaitNS += int64(time.Since(t0))
			if err != nil {
				return err
			}
			if f.Kind != KindRTri || f.Seq != seq {
				putBuf(buf)
				return fmt.Errorf("dist: rank %d expected R triangle of round %d from rank %d, got kind=%d seq=%d",
					rank, seq, partner, f.Kind, f.Seq)
			}
			err = UnpackTriangle(red.partner, red.n, red.n, f.Payload)
			putBuf(buf)
			if err != nil {
				return err
			}
			if nrhs > 0 {
				t0 = time.Now()
				f, buf, err = rh.recv(partner)
				st.RecvWaitNS += int64(time.Since(t0))
				if err != nil {
					return err
				}
				if f.Kind != KindQTB || f.Seq != seq {
					putBuf(buf)
					return fmt.Errorf("dist: rank %d expected Qᵀb of round %d from rank %d, got kind=%d seq=%d",
						rank, seq, partner, f.Kind, f.Seq)
				}
				err = unpackDense(red.partnerQTB, nrhs, &f)
				putBuf(buf)
				if err != nil {
					return err
				}
			}
			c0 := time.Now()
			red.combine()
			st.CombineNS += int64(time.Since(c0))
		}
	}
	return nil
}
