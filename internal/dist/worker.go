// The worker side of the distributed CAQR runtime: one process (or
// goroutine) owning a row shard of the global matrix. Each round it runs a
// local tiled QR on the shared in-process runtime — reusing the
// FactorInto arena, DAG and plan across rounds, so steady-state rounds
// allocate nothing — folds Qᵀb for its rows, and feeds its n×n R triangle
// into the binary TTQRT reduction tree. A worker that has handed its R to
// its tree pivot is immediately free to start the next round's local
// factorization while the triangle is still in flight: that overlap is
// the point, and the per-worker stats measure how much of the wire time
// it hides.
package dist

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"tiledqr/internal/engine"
	"tiledqr/internal/sched"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// RunWorker connects to a coordinator, runs the configured shard to
// completion (or coordinated drain), and returns. It is the body of
// `qrdist -connect` and of the in-process workers bench/ and the tests
// spawn as goroutines.
func RunWorker(ctx context.Context, coordAddr string) error {
	conn, err := net.DialTimeout("tcp", coordAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dist: worker dialing coordinator: %w", err)
	}
	defer conn.Close()
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: worker peer listener: %w", err)
	}
	setDeadline(conn, 30*time.Second)
	if err := writeJSON(conn, KindHello, 0, helloMsg{Proto: protoVersion, PeerAddr: peerLn.Addr().String()}); err != nil {
		peerLn.Close()
		return err
	}
	var cfg wireConfig
	if _, err := readJSON(conn, nil, KindConfig, &cfg); err != nil {
		peerLn.Close()
		return fmt.Errorf("dist: worker handshake: %w", err)
	}
	setDeadline(conn, 0)
	if cfg.Proto != protoVersion {
		peerLn.Close()
		return fmt.Errorf("dist: protocol version mismatch: coordinator %d, worker %d", cfg.Proto, protoVersion)
	}
	var run func(context.Context, net.Conn, *wireConfig, net.Listener) error
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
		peerLn.Close()
		return fmt.Errorf("dist: unknown precision %q", cfg.Prec)
	}
	if err := run(ctx, conn, &cfg, peerLn); err != nil {
		// Best effort: tell the coordinator why before disconnecting.
		_ = writeJSON(conn, KindErr, 0, errMsg{Rank: cfg.Rank, Error: err.Error()})
		return err
	}
	return nil
}

// ctlState is the worker's view of the coordinator's flow-control plane,
// updated by the watcher goroutine: how many rounds it may run (the
// pipelining credit window) and, once a drain begins, the agreed final
// round count every worker stops at — consistency there is what keeps
// tree pivots from waiting forever on partners that already stopped.
type ctlState struct {
	allow atomic.Int64
	final atomic.Int64 // -1 until a Stop arrives
	errv  atomic.Value
	wake  chan struct{}
	done  chan struct{}
}

func (c *ctlState) notify() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *ctlState) fail(err error) {
	c.errv.CompareAndSwap(nil, err)
	c.notify()
}

func (c *ctlState) err() error {
	if v := c.errv.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// watch reads the coordinator connection for control frames for the life
// of the run.
func watch(conn net.Conn, ctl *ctlState) {
	var buf []byte
	for {
		f, b, err := ReadFrame(conn, buf)
		if err != nil {
			ctl.fail(fmt.Errorf("dist: coordinator connection lost: %w", err))
			return
		}
		buf = b
		switch f.Kind {
		case KindRound:
			if n := int64(f.Seq); n > ctl.allow.Load() {
				ctl.allow.Store(n)
			}
			ctl.notify()
		case KindStop:
			ctl.final.Store(int64(f.Seq))
			ctl.notify()
		case KindDone:
			close(ctl.done)
			return
		}
	}
}

// runShard executes one worker's rounds at a concrete precision.
func runShard[T vec.Scalar](ctx context.Context, conn net.Conn, cfg *wireConfig, peerLn net.Listener) error {
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

	ctl := &ctlState{wake: make(chan struct{}, 1), done: make(chan struct{})}
	ctl.allow.Store(int64(cfg.Allow))
	ctl.final.Store(-1)
	go watch(conn, ctl)

	red := newReducer[T](n, nrhs, cfg.IB)
	sh := newSendHub(rank, cfg.Peers)
	rh := newRecvHub(peerLn)
	defer func() { sh.close(); rh.close() }()

	var f engine.Factorization[T]
	var js sched.JobStats
	engCfg := engine.Config{
		Algorithm: cfg.algorithm(), Kernels: cfg.kernels(),
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
		ok, err := waitRound(ctx, ctl, r)
		if err != nil {
			return err
		}
		if !ok {
			break // coordinated drain: every worker stops at the same round
		}

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
			buf := red.packR(uint32(r))
			nw, err := conn.Write(buf)
			putBuf(buf)
			st.BytesSent += int64(nw)
			if err != nil {
				return fmt.Errorf("dist: rank 0 result send: %w", err)
			}
			if nrhs > 0 {
				buf = red.packQTB(uint32(r))
				nw, err = conn.Write(buf)
				putBuf(buf)
				st.BytesSent += int64(nw)
				if err != nil {
					return fmt.Errorf("dist: rank 0 result send: %w", err)
				}
			}
			st.SendNS += int64(time.Since(t0))
		}
		st.Rounds++
	}
	st.WallNS = int64(time.Since(start))
	st.SendNS += sh.sendNS.Load()
	st.BytesSent += sh.bytesSent.Load()
	st.BytesRecv += rh.bytesRecv.Load()
	if err := sh.err(); err != nil {
		return err
	}

	if err := writeJSON(conn, KindStats, uint32(st.Rounds), &st); err != nil {
		return err
	}
	// Wait for the coordinator's Done so the connection isn't torn down
	// under its final reads; bounded so a dead coordinator can't wedge us.
	select {
	case <-ctl.done:
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	return nil
}

// waitRound blocks until round r is inside the coordinator's credit
// window (run it), the drain point says stop (don't), or the run fails.
func waitRound(ctx context.Context, ctl *ctlState, r int) (bool, error) {
	for {
		if err := ctl.err(); err != nil {
			return false, err
		}
		if fin := ctl.final.Load(); fin >= 0 && int64(r) >= fin {
			return false, nil
		}
		if ctl.allow.Load() > int64(r) {
			return true, nil
		}
		select {
		case <-ctl.wake:
		case <-ctx.Done():
			return false, ctx.Err()
		case <-ctl.done:
			return false, nil
		}
	}
}

// treeRound runs one round of the binomial reduction tree for this rank:
// at each level the rank is a pivot (receive a partner's triangle and
// Qᵀb block, TTQRT/TTMQR them into the resident state), a sender (pack
// the resident state onto the wire to its pivot and finish the round —
// the sender is then free to start its next local factorization while the
// frames are in flight), or idle at that level (no partner in range).
func treeRound[T vec.Scalar](red *reducer[T], sh *sendHub, rh *recvHub, st *WorkerStats, rank, W, nrhs int, seq uint32) error {
	for step := 1; step < W; step <<= 1 {
		switch {
		case rank%(2*step) == step:
			pivot := rank - step
			if err := sh.send(pivot, red.packR(seq)); err != nil {
				return err
			}
			if nrhs > 0 {
				if err := sh.send(pivot, red.packQTB(seq)); err != nil {
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
