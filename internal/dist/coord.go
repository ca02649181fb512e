// The coordinator of the distributed CAQR runtime: it shards the global
// matrix row-wise across worker processes, hands each worker its rank and
// the peer table of the reduction tree, streams every worker its shard at
// once — chunks of whole tile rows written straight from the caller's
// matrix, which the worker merges as they arrive — and collects every
// worker's stats and, each round, one aggregate frame from the tree root:
// the global R, the top block of Qᵀb, the residual norm and the row count.
// Workers run their rounds on their own; after the shard the coordinator
// sends nothing more until Done.
// Cancelling a run, or any worker failing, closes every worker connection,
// so the whole run stops promptly with an error.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tiledqr/internal/engine"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// Config shapes a distributed run. Zero values take the documented
// defaults. Each worker streams its shard into a stream.Core along the
// flat tree with TS kernels, and the reduction tree merges their
// aggregates with TT kernels.
type Config struct {
	Workers      int    // worker processes to expect (default 2)
	NB           int    // tile size inside each shard (default 128)
	IB           int    // inner block size (default 32)
	Rounds       int    // factor+reduce rounds per run (default 1)
	LocalWorkers int    // scheduler width inside each worker (0 = default)
	Addr         string // listen address (default "127.0.0.1:0")
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.NB <= 0 {
		c.NB = 128
	}
	if c.IB <= 0 {
		c.IB = 32
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
}

// Coordinator is a listening distributed-run endpoint. Create one, point
// workers at Addr(), then call Run.
type Coordinator struct {
	cfg Config
	ln  net.Listener
}

// NewCoordinator applies cfg's defaults and starts listening.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: coordinator listen: %w", err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the address workers should connect to.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the listener. Run closes it itself.
func (c *Coordinator) Close() { _ = c.ln.Close() }

// Result is the outcome of a distributed run at one precision.
type Result[T vec.Scalar] struct {
	R        *tile.Dense[T] // n×n upper-triangular global R factor
	QTB      *tile.Dense[T] // top n rows of Qᵀb (nil when nrhs == 0)
	X        *tile.Dense[T] // n×nrhs least-squares solution (nil when nrhs == 0)
	Residual float64        // ‖b − A·X‖_F over all m rows (0 when nrhs == 0)
	Stats    RunStats
}

// workerConn is the coordinator's handle on one connected worker.
type workerConn struct {
	conn     net.Conn
	peerAddr string
}

// coordEvent is one frame (or failure) delivered by a per-worker reader.
type coordEvent struct {
	rank int
	f    Frame
	buf  []byte
	err  error
}

// Run executes one distributed factorization: wait for cfg.Workers workers
// to connect, shard a (m×n, row-wise) and b (m×nrhs, optional) across
// them, run the configured rounds, and return the global R, the Qᵀb top
// block, the least-squares solution X = R⁻¹(Qᵀb)[:n] and its residual
// norm. Cancelling ctx closes every worker connection and returns
// ctx.Err() at once; the workers abort mid-round.
func Run[T vec.Scalar](ctx context.Context, c *Coordinator, a, b *tile.Dense[T]) (*Result[T], error) {
	defer c.Close()
	cfg := c.cfg
	W := cfg.Workers

	// Resolve the global shape and the row split.
	if a == nil {
		return nil, fmt.Errorf("dist: Run needs a matrix")
	}
	m, n, nrhs := a.Rows, a.Cols, 0
	if b != nil {
		if b.Rows != m {
			return nil, fmt.Errorf("dist: b has %d rows, want %d", b.Rows, m)
		}
		nrhs = b.Cols
	}
	shardRows := make([]int, W)
	base, rem := m/W, m%W
	for i := range shardRows {
		shardRows[i] = base
		if i < rem {
			shardRows[i]++
		}
	}
	// The reduction tree combines n×n triangles, so every shard must
	// cover at least n rows; thinner shards mean the matrix is too
	// small to scale out — stay single-node (see README).
	if base < n {
		return nil, fmt.Errorf("dist: %d rows over %d workers gives shards of %d < n=%d rows; use fewer workers or single-node Factor", m, W, base, n)
	}

	workers, err := c.acceptWorkers(ctx, W)
	if err != nil {
		return nil, err
	}
	// Closing the connections ends every reader and shipper goroutine;
	// none outlives Run.
	runDone := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(runDone)
		for _, w := range workers {
			_ = w.conn.Close()
		}
		wg.Wait()
	}()

	// Configure every worker: rank, peer table, shape.
	peers := make([]string, W)
	for r, w := range workers {
		peers[r] = w.peerAddr
	}
	for r, w := range workers {
		wc := wireConfig{
			Proto: protoVersion, Rank: r, Workers: W, Peers: peers,
			Prec: vec.Prec[T]().Tag(), ShardRows: shardRows[r], N: n, NRHS: nrhs,
			NB: cfg.NB, IB: cfg.IB, Rounds: cfg.Rounds, LocalWorkers: cfg.LocalWorkers,
		}
		if err := writeJSON(w.conn, KindConfig, 0, &wc); err != nil {
			return nil, fmt.Errorf("dist: configuring rank %d: %w", r, err)
		}
	}

	// Per-worker readers feed one event stream. They start before the
	// shards do, so a worker that fails mid-shipment is reported by its own
	// Err frame rather than by the write it broke.
	events := make(chan coordEvent, 4*W)
	for r, w := range workers {
		wg.Add(1)
		go func(rank int, conn net.Conn) {
			defer wg.Done()
			for {
				f, buf, err := ReadFrame(conn, getBuf(0))
				ev := coordEvent{rank: rank, f: f, buf: buf, err: err}
				if err != nil {
					putBuf(buf)
					ev.buf = nil
				}
				select {
				case events <- ev:
				case <-runDone:
					putBuf(ev.buf)
					return
				}
				if err != nil {
					return
				}
			}
		}(r, w.conn)
	}
	// Ship every worker its shard (and RHS rows) at once, exactly once.
	// A failed write ends a shipment silently: the connection it broke is
	// the one its reader reports.
	if nrhs == 0 {
		b = nil
	}
	step := chunkRows[T](n, cfg.NB)
	row := 0
	for r, w := range workers {
		wg.Add(1)
		go func(conn net.Conn, first, rows int) {
			defer wg.Done()
			_ = shipShard(conn, a, b, first, rows, step)
		}(w.conn, row, shardRows[r])
		row += shardRows[r]
	}

	res := &Result[T]{R: tile.NewDense[T](n, n)}
	var qtb []T
	if nrhs > 0 {
		res.QTB = tile.NewDense[T](n, nrhs)
		qtb = res.QTB.Data
	}
	gotResults := 0
	statsBy := make([]WorkerStats, 0, W)
	for gotResults < cfg.Rounds || len(statsBy) < W {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case ev := <-events:
			if ev.err != nil {
				return nil, fmt.Errorf("dist: worker %d connection: %w", ev.rank, ev.err)
			}
			switch ev.f.Kind {
			case KindErr:
				err := fmt.Errorf("dist: worker %d failed", ev.rank)
				var em errMsg
				if jsonErr := json.Unmarshal(ev.f.Payload, &em); jsonErr == nil {
					err = fmt.Errorf("dist: worker %d failed: %s", em.Rank, em.Error)
				}
				putBuf(ev.buf)
				return nil, err
			case KindAgg:
				resid, rows, err := unpackAgg(&ev.f, n, nrhs, res.R.Data, qtb)
				putBuf(ev.buf)
				if err == nil && rows != int64(m) {
					err = fmt.Errorf("dist: the tree root's aggregate covers %d rows, want %d", rows, m)
				}
				if err != nil {
					return nil, err
				}
				res.Residual = resid
				gotResults++
			case KindStats:
				var ws WorkerStats
				err := json.Unmarshal(ev.f.Payload, &ws)
				putBuf(ev.buf)
				if err != nil {
					return nil, fmt.Errorf("dist: worker %d stats: %w", ev.rank, err)
				}
				statsBy = append(statsBy, ws)
			default:
				putBuf(ev.buf)
				return nil, fmt.Errorf("dist: unexpected frame kind %d from worker %d", ev.f.Kind, ev.rank)
			}
		}
	}
	for _, w := range workers {
		_, _ = WriteFrame(w.conn, &Frame{Kind: KindDone})
	}
	res.Stats = aggregate(statsBy, cfg.Rounds)
	if nrhs > 0 {
		res.X = tile.NewDense[T](n, nrhs)
		xcol := make([]T, n)
		if err := engine.SolveUpper(n, nrhs, res.R.Data, res.R.Stride,
			res.QTB.Data, res.QTB.Stride, res.X.Data, res.X.Stride, xcol); err != nil {
			return nil, fmt.Errorf("dist: back-substitution: %w", err)
		}
	}
	return res, nil
}

// chunkBytes is the payload a shard chunk aims at: large enough that
// per-frame and per-merge overheads stay small, small enough that a worker
// starts factoring long before its whole shard has arrived.
const chunkBytes = 256 << 10

// chunkRows is the height of a shard chunk of a cols-wide matrix of T:
// about chunkBytes of payload, rounded down to whole nb-row tiles, and at
// least one tile row.
func chunkRows[T vec.Scalar](cols, nb int) int {
	return max(1, chunkBytes/(cols*scalarBytes[T]())/nb) * nb
}

// shipShard writes rows first … first+rows−1 of a as chunks of at most
// step rows, each followed by the chunk of the same rows of b when b is
// not nil. A chunk's Seq is its first row within the shard.
func shipShard[T vec.Scalar](w io.Writer, a, b *tile.Dense[T], first, rows, step int) error {
	for i := 0; i < rows; i += step {
		k, at := min(step, rows-i), first+i
		if err := writeRows(w, KindShard, uint32(i), a.Data[at*a.Stride:], a.Stride, k, a.Cols); err != nil {
			return err
		}
		if b == nil {
			continue
		}
		if err := writeRows(w, KindRHS, uint32(i), b.Data[at*b.Stride:], b.Stride, k, b.Cols); err != nil {
			return err
		}
	}
	return nil
}

// acceptWorkers waits for W workers to connect and say hello, assigning
// ranks in connection order.
func (c *Coordinator) acceptWorkers(ctx context.Context, W int) ([]workerConn, error) {
	defer c.ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	conns := make(chan accepted)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := c.ln.Accept()
			select {
			case conns <- accepted{conn, err}:
			case <-done: // acceptWorkers returned; its closing of ln is what ended Accept
				if conn != nil {
					_ = conn.Close()
				}
				return
			}
			if err != nil {
				return
			}
		}
	}()
	workers := make([]workerConn, 0, W)
	fail := func(err error) ([]workerConn, error) {
		for _, w := range workers {
			_ = w.conn.Close()
		}
		return nil, err
	}
	for len(workers) < W {
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case acc := <-conns:
			if acc.err != nil {
				return fail(fmt.Errorf("dist: accept: %w", acc.err))
			}
			setDeadline(acc.conn, 30*time.Second)
			var hello helloMsg
			if _, err := readJSON(acc.conn, nil, KindHello, &hello); err != nil {
				_ = acc.conn.Close()
				return fail(fmt.Errorf("dist: worker handshake: %w", err))
			}
			if hello.Proto != protoVersion {
				_ = acc.conn.Close()
				return fail(fmt.Errorf("dist: protocol version mismatch: worker %d, coordinator %d", hello.Proto, protoVersion))
			}
			setDeadline(acc.conn, 0)
			workers = append(workers, workerConn{conn: acc.conn, peerAddr: hello.PeerAddr})
		}
	}
	return workers, nil
}

// SpawnLocal starts w in-process workers as goroutines against addr — the
// single-binary mode of cmd/qrdist, bench/ and the tests.
// The returned channel yields one value per worker as it exits.
func SpawnLocal(ctx context.Context, addr string, w int) <-chan error {
	errs := make(chan error, w)
	for i := 0; i < w; i++ {
		go func() { errs <- RunWorker(ctx, addr) }()
	}
	return errs
}
