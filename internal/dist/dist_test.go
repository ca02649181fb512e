package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/fault"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// canonicalizeR scales each row of an upper-triangular factor so its
// diagonal entry is real and non-negative. R is unique only up to a
// unitary diagonal phase, and the distributed elimination order differs
// from the single-process one, so factors must be canonicalized before an
// entrywise comparison.
func canonicalizeR[T vec.Scalar](r *tile.Dense[T]) {
	for i := 0; i < r.Rows && i < r.Cols; i++ {
		d := r.At(i, i)
		a := vec.Abs(d)
		if a == 0 {
			continue
		}
		scale := vec.Conj(d) * vec.FromParts[T](1/a, 0)
		for j := i; j < r.Cols; j++ {
			r.Set(i, j, r.At(i, j)*scale)
		}
	}
}

// joinWorkers drains the SpawnLocal error channel, failing on any worker
// error.
func joinWorkers(t *testing.T, errs <-chan error, w int) {
	t.Helper()
	for i := 0; i < w; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("worker failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker did not exit")
		}
	}
}

// runDistVsLocal runs a W-worker distributed factorization of a random
// m×n matrix against the single-process engine and requires R (after sign
// canonicalization) and the least-squares solution to agree to tol
// relative to the input's scale, and the residual norm to agree with the
// one-shot ‖b − A·x̂‖_F to tol relative. nrhs = 0 runs R alone.
func runDistVsLocal[T vec.Scalar](t *testing.T, m, n, nrhs, W int, tol float64) {
	t.Helper()
	a := tile.RandDense[T](m, n, 7)
	var b *tile.Dense[T]
	if nrhs > 0 {
		b = tile.RandDense[T](m, nrhs, 8)
	}
	runDist(t, a, b, W, tol)
}

// runDist is runDistVsLocal on a given a and b (nil for R alone).
func runDist[T vec.Scalar](t *testing.T, a, b *tile.Dense[T], W int, tol float64) {
	t.Helper()
	m, n, nrhs := a.Rows, a.Cols, 0
	if b != nil {
		nrhs = b.Cols
	}
	c, err := NewCoordinator(Config{
		Workers: W, NB: 32, IB: 8, LocalWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := SpawnLocal(context.Background(), c.Addr(), W)
	res, err := Run[T](context.Background(), c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	joinWorkers(t, errs, W)

	f, err := engine.Factor(a, engine.Config{
		Algorithm: core.Greedy, TileSize: 32, InnerBlock: 8,
		Env: engine.Env{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := f.R().View(0, 0, n, n)
	got := res.R
	canonicalizeR(want)
	canonicalizeR(got)
	scale := tile.FrobNorm(a)
	if diff := tile.MaxAbsDiff(got, want); diff > tol*scale {
		t.Errorf("R disagrees with single-process Factor: max |Δ| = %g (tolerance %g)", diff, tol*scale)
	}

	if b == nil {
		if res.X != nil || res.Residual != 0 {
			t.Errorf("a run without right-hand side returned x = %v and residual %g", res.X, res.Residual)
		}
	} else {
		x, err := f.SolveLS(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		// The LS solution is unique (full-rank random A), so it compares
		// directly — no canonicalization.
		xScale := tile.FrobNorm(x)
		if diff := tile.MaxAbsDiff(res.X, x); diff > tol*xScale {
			t.Errorf("SolveLS disagrees with single-process engine: max |Δ| = %g (tolerance %g)", diff, tol*xScale)
		}
		r := tile.Mul(a, x)
		for i := 0; i < m; i++ {
			for j := 0; j < nrhs; j++ {
				r.Set(i, j, b.At(i, j)-r.At(i, j))
			}
		}
		if direct := tile.FrobNorm(r); math.Abs(res.Residual-direct) > tol*direct {
			t.Errorf("residual %.17g, one-shot ‖b − A·x̂‖_F %.17g (relative tolerance %g)", res.Residual, direct, tol)
		}
	}

	st := res.Stats
	if st.Workers != W {
		t.Errorf("stats cover %d workers, want %d", st.Workers, W)
	}
	if W > 1 && (st.BytesSent == 0 || st.BytesRecv == 0) {
		t.Errorf("stats report no wire traffic: sent=%d recv=%d", st.BytesSent, st.BytesRecv)
	}
	if st.ComputeNS == 0 {
		t.Error("stats report no compute time")
	}
}

// TestDistMatchesLocal is the heart of the acceptance criteria: the
// multi-process CAQR result — R, x and the residual norm — must agree with
// the single-process engine in all four precisions, including a
// non-power-of-two worker count, and a run without right-hand side must
// return R alone.
func TestDistMatchesLocal(t *testing.T) {
	t.Run("double", distAgreement[float64](1e-12))
	t.Run("double-complex", distAgreement[complex128](1e-12))
	t.Run("single", distAgreement[float32](2e-4))
	t.Run("single-complex", distAgreement[complex64](2e-4))
	t.Run("double-R-only", func(t *testing.T) { runDistVsLocal[float64](t, 256, 64, 0, 3, 1e-12) })
}

// distAgreement is one precision's agreement suite: shards of one chunk,
// then three workers whose shards span three chunks, the last of them
// ragged (not whole tiles), for 0, 1 and 3 right-hand sides; the same with
// a and b strided, which the coordinator packs before it ships them; and
// the same with the packing wire path forced on both sides, the one a
// big-endian host takes.
func distAgreement[T vec.Scalar](tol float64) func(*testing.T) {
	return func(t *testing.T) {
		runDistVsLocal[T](t, 256, 64, 2, 3, tol)
		const n, W = 64, 3
		step := chunkRows[T](n, 32)
		m := W*(2*step+43) + 1 // the last chunk 43 or 44 rows
		for _, nrhs := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("chunked-nrhs=%d", nrhs), func(t *testing.T) { runDistVsLocal[T](t, m, n, nrhs, W, tol) })
		}
		t.Run("strided", func(t *testing.T) {
			runDist(t, tile.RandDense[T](m, n+3, 7).View(0, 0, m, n), tile.RandDense[T](m, 5, 8).View(0, 0, m, 2), W, tol)
		})
		t.Run("packed", func(t *testing.T) {
			defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
			hostLittleEndian = false
			runDistVsLocal[T](t, m, n, 1, W, tol)
		})
	}
}

// TestDistSingleWorker degenerates the tree to nothing: one shard, no
// peer traffic, still the right answer.
func TestDistSingleWorker(t *testing.T) {
	runDistVsLocal[float64](t, 128, 32, 1, 1, 1e-12)
}

// TestDistPowerOfTwoWorkers runs the full-depth binary tree of four
// workers, then requires that nothing is left running.
func TestDistPowerOfTwoWorkers(t *testing.T) {
	runDistVsLocal[float64](t, 512, 64, 1, 4, 1e-12)
	assertNoGoroutines(t)
}

// TestDistCancel cancels a long run in the middle: Run returns
// context.Canceled at once, and every worker aborts mid-pass with an error
// naming the lost coordinator connection — the SIGTERM semantics of
// cmd/qrdist. The stall injector holds every float64 task for 20 ms, so the
// run lasts seconds and a task in flight at the cancel ends within 20 ms of
// it. A worker still receiving its shard sees the loss only once it has
// merged the chunks already in its socket buffer; at n = nb = 128 without
// right-hand side a 256 KiB chunk is one batch tile, one task, so that
// takes some 20 ms per chunk.
func TestDistCancel(t *testing.T) {
	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Index: -1, Stall: 20 * time.Millisecond})
	defer fault.Reset()
	// 96 chunks a worker: some 2 s of stalls, far past the cancel below,
	// and far more than the socket buffers hold.
	const W, m, n = 2, 2 * 96 * 256, 128
	c, err := NewCoordinator(Config{Workers: W, NB: n, IB: 32, LocalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := tile.RandDense[float64](m, n, 42)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := SpawnLocal(context.Background(), c.Addr(), W)
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancelled <- time.Now()
		cancel()
	}()
	_, err = Run(ctx, c, a, nil)
	at := <-cancelled
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(at); d > time.Second {
		t.Errorf("Run returned %v after the cancel, want < 1s", d)
	}
	for i := 0; i < W; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "coordinator connection lost") {
				t.Errorf("worker exited with %v, want the lost coordinator connection", err)
			}
		case <-time.After(5*time.Second - time.Since(at)):
			t.Fatalf("worker still running 5s after the cancel")
		}
	}
	assertNoGoroutines(t)
}

// TestDistFailedWorker: a fake peer speaking raw frames joins the run and
// reports a failure. Run fails with its message, and the real worker exits
// within 5s whichever rank it got — as rank 0 it was waiting in the tree
// for the fake's triangle, as rank 1 for a Done that never comes.
func TestDistFailedWorker(t *testing.T) {
	for _, fakeFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("fake-first=%v", fakeFirst), func(t *testing.T) {
			c, err := NewCoordinator(Config{Workers: 2, NB: 32, IB: 8, LocalWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// The fake's peer listener accepts (in the kernel) and never reads.
			peerLn, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer peerLn.Close()
			var errs <-chan error
			if !fakeFirst {
				errs = SpawnLocal(context.Background(), c.Addr(), 1)
				time.Sleep(100 * time.Millisecond) // let it take rank 0
			}
			conn, err := net.Dial("tcp", c.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeJSON(conn, KindHello, 0, helloMsg{Proto: protoVersion, PeerAddr: peerLn.Addr().String()}); err != nil {
				t.Fatal(err)
			}
			if fakeFirst {
				errs = SpawnLocal(context.Background(), c.Addr(), 1)
			}
			runErr := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), c, tile.RandDense[float64](128, 32, 1), tile.RandDense[float64](128, 1, 2))
				runErr <- err
			}()
			var cfg wireConfig
			if _, err := readJSON(conn, nil, KindConfig, &cfg); err != nil {
				t.Fatal(err)
			}
			for _, want := range []byte{KindShard, KindRHS} {
				if f, _, err := ReadFrame(conn, nil); err != nil || f.Kind != want {
					t.Fatalf("fake peer read kind %d, %v; want kind %d", f.Kind, err, want)
				}
			}
			t.Logf("fake peer is rank %d", cfg.Rank)
			if err := writeJSON(conn, KindErr, 0, errMsg{Rank: cfg.Rank, Error: "injected failure"}); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-runErr:
				want := fmt.Sprintf("worker %d failed: injected failure", cfg.Rank)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Run returned %v, want %q", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return after the peer failed")
			}
			select {
			case err := <-errs:
				if err == nil {
					t.Error("real worker reported success in a failed run")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("real worker still running 5s after its peer failed")
			}
			assertNoGoroutines(t)
		})
	}
}

// TestDistFaultedWorker injects a failure, an error and then a panic, into
// the first d task of one factor kernel of the run: TSQRT, which only the
// shard appends run (flat tree, TS kernels), and TTQRT, which only rank 0's
// triangle merge of rank 1's aggregate runs. Each shard is three chunks, so
// TSQRT faults in the first chunk's merge while the rest are still in
// flight. Every worker kernel runs through engine.ExecTask, where the
// injector sits: Run must return a named worker failure — the worker's own
// Err frame, not the shipment it broke — within 5s, both workers must exit
// within 5s, the faulted one with the injected cause, and nothing may be
// left running. (Run reports the first failure it reads, which may be the
// other worker's.)
func TestDistFaultedWorker(t *testing.T) {
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModePanic} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, kind := range []core.Kind{core.KTSQRT, core.KTTQRT} {
				t.Run(kind.String(), func(t *testing.T) { faultWorker(t, kind, mode) })
			}
		})
	}
}

func faultWorker(t *testing.T, kind core.Kind, mode fault.Mode) {
	fault.Set(fault.Config{Mode: mode, Kind: kind, Prec: "d", Index: 0, Times: 1})
	defer fault.Reset()
	const W = 2
	c, err := NewCoordinator(Config{Workers: W, NB: 32, IB: 8, LocalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	errs := SpawnLocal(context.Background(), c.Addr(), W)
	runErr := make(chan error, 1)
	go func() {
		m := W * 3 * chunkRows[float64](32, 32)
		_, err := Run(context.Background(), c, tile.RandDense[float64](m, 32, 1), tile.RandDense[float64](m, 1, 2))
		runErr <- err
	}()
	select {
	case err := <-runErr:
		if err == nil || !regexp.MustCompile(`worker \d+ failed: `).MatchString(err.Error()) {
			t.Fatalf("Run returned %v, want a named worker failure", err)
		}
		t.Log(err)
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of the fault")
	}
	var causes []string
	for i := 0; i < W; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a worker reported success in a failed run")
			}
			causes = append(causes, err.Error())
		case <-time.After(5*time.Second - time.Since(start)):
			t.Fatal("a worker still running 5s after the fault")
		}
	}
	if want := "fault injection: injected " + mode.String(); !strings.Contains(strings.Join(causes, "\n"), want) {
		t.Errorf("no worker exited with %q:\n%s", want, strings.Join(causes, "\n"))
	}
	if n := fault.Injected(); n != 1 {
		t.Errorf("%d faults injected, want 1", n)
	}
	assertNoGoroutines(t)
}

// assertNoGoroutines requires every goroutine the package started to be
// gone (within 2s): none but the running tests' own is left inside dist.
func assertNoGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		var left []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "tiledqr/internal/dist.") && !strings.Contains(g, "testing.tRunner(") {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left:\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistRefusesOldProtocol: a version-1 peer (which could be told to
// generate its own shard, and would wait forever for one now) is turned
// away at the handshake with the version-mismatch error, and the refused
// run leaves no goroutine behind.
func TestDistRefusesOldProtocol(t *testing.T) {
	c, err := NewCoordinator(Config{Workers: 1, NB: 32, IB: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, KindHello, 0, helloMsg{Proto: 1, PeerAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), c, tile.RandDense[float64](64, 32, 1), nil)
	want := fmt.Sprintf("protocol version mismatch: worker 1, coordinator %d", protoVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a proto-1 hello must be refused with the version mismatch, got %v", err)
	}
	// The coordinator hung up on the refused peer.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(conn, nil); err == nil {
		t.Error("refused peer was sent a frame; want its connection closed")
	}
	assertNoGoroutines(t)
}

// TestDistRejectsThinShards enforces the shard ≥ n floor with a
// when-to-shard hint instead of producing a malformed tree.
func TestDistRejectsThinShards(t *testing.T) {
	c, err := NewCoordinator(Config{Workers: 4, NB: 32, IB: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := tile.RandDense[float64](64, 64, 1)
	_, err = Run[float64](context.Background(), c, a, nil)
	if err == nil || !strings.Contains(err.Error(), "single-node") {
		t.Fatalf("thin shards must be rejected with a single-node hint, got %v", err)
	}
}

// TestDistWorkerRefusesBadChunks drives one worker from a hand-rolled
// coordinator — hello, the config of a 12×4 float64 shard with one
// right-hand side, then frames that do not fit it; or a config that cannot
// be run. Each must end the worker with a named error, also reported to
// the coordinator in an Err frame, and never with a panic or a silently
// zero-filled shard. At 4096 columns the worker's chunk buffer holds 8 of
// the 12 rows, so a 9-row chunk is refused though the rows are due.
func TestDistWorkerRefusesBadChunks(t *testing.T) {
	const rows, n = 12, 4
	chunk := func(kind, prec byte, seq, r, c int) *Frame {
		return &Frame{Kind: kind, Prec: prec, Seq: uint32(seq), Rows: uint32(r), Cols: uint32(c), Payload: make([]byte, r*c*8)}
	}
	wide := func(c *wireConfig) { c.N = 4096 }
	for _, tc := range []struct {
		name   string
		config func(*wireConfig) // nil: the 12×4 shard as is
		frames []*Frame
		is     error
		want   string
	}{
		{"too-many-rows", nil, []*Frame{chunk(KindShard, 'd', 0, rows+3, n)}, errBadChunk, "chunk of 15 rows at row 0, want 1 to 12"},
		{"taller-than-buffer", wide, []*Frame{{Kind: KindShard, Prec: 'd', Rows: 9, Cols: 4096}}, errBadChunk, "chunk of 9 rows at row 0, want 1 to 8"},
		{"wrong-seq", nil, []*Frame{chunk(KindShard, 'd', 4, 4, n)}, errBadChunk, "chunk starts at row 4, want row 0"},
		{"wrong-cols", nil, []*Frame{chunk(KindShard, 'd', 0, 4, n+1)}, errBadChunk, "chunk of 5 columns, want 4"},
		{"wrong-precision", nil, []*Frame{chunk(KindShard, 's', 0, 4, n)}, errBadChunk, `precision 's' at row 0, want 'd'`},
		{"short-payload", nil, []*Frame{{Kind: KindShard, Prec: 'd', Rows: 4, Cols: n, Payload: make([]byte, 4*n*8-8)}}, errBadChunk, "chunk of 4×4 in 120 bytes, want 128"},
		{"rhs-rows-differ", nil, []*Frame{chunk(KindShard, 'd', 0, 8, n), chunk(KindRHS, 'd', 0, 4, 1)}, errBadChunk, "RHS chunk of 4 rows at row 0, shard chunk of 8"},
		{"early-frame", nil, []*Frame{chunk(KindShard, 'd', 0, 8, n), chunk(KindRHS, 'd', 0, 8, 1), {Kind: KindDone}}, errBadChunk, "frame kind 8 at row 8, want kind 3"},
		{"rank-out-of-range", func(c *wireConfig) { c.Rank = 1 }, nil, errBadConfig, "rank 1 of 1 workers"},
		{"negative-nrhs", func(c *wireConfig) { c.NRHS = -1 }, nil, errBadConfig, "-1 right-hand sides"},
		{"no-shard-rows", func(c *wireConfig) { c.ShardRows = 0 }, nil, errBadConfig, "0 shard rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			werr := SpawnLocal(context.Background(), ln.Addr().String(), 1)
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var hello helloMsg
			if _, err := readJSON(conn, nil, KindHello, &hello); err != nil {
				t.Fatal(err)
			}
			wc := wireConfig{Proto: protoVersion, Workers: 1, Peers: []string{hello.PeerAddr}, Prec: "d",
				ShardRows: rows, N: n, NRHS: 1, NB: 4, IB: 2, LocalWorkers: 1}
			if tc.config != nil {
				tc.config(&wc)
			}
			if err := writeJSON(conn, KindConfig, 0, &wc); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.frames {
				if _, err := WriteFrame(conn, f); err != nil {
					t.Fatal(err)
				}
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// readJSON surfaces an Err frame as the error it carries.
			if _, err := readJSON(conn, nil, KindErr, new(errMsg)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("coordinator read %v, want the worker's Err frame naming %q", err, tc.want)
			}
			select {
			case err := <-werr:
				if err == nil || !errors.Is(err, tc.is) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("worker exited with %v, want %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker still running 5s after a bad chunk")
			}
			assertNoGoroutines(t)
		})
	}
}

// TestDistRounds: a run is one pass, so Config.Rounds takes 0 or 1 and
// anything else is refused before the coordinator listens.
func TestDistRounds(t *testing.T) {
	for _, tc := range []struct {
		rounds int
		ok     bool
	}{{0, true}, {1, true}, {2, false}, {-1, false}} {
		c, err := NewCoordinator(Config{Workers: 1, Rounds: tc.rounds})
		switch {
		case tc.ok && err != nil:
			t.Errorf("Rounds %d refused: %v", tc.rounds, err)
		case tc.ok:
			c.Close()
		case err == nil || !strings.Contains(err.Error(), "one pass"):
			t.Errorf("Rounds %d: got %v, want a refusal saying a run is one pass", tc.rounds, err)
		}
	}
}

// TestDistRunAllocations counts what a warm float64 run moves and
// allocates, one row per shape and counter:
//   - sent: the bytes the workers send on the tree edges and to the
//     coordinator are exactly W aggregate frames and W−1 peer hellos —
//     one message per tree edge (Demmel et al.) and the root's result.
//   - alloc: the bytes a warm 2-worker run of dist_round's 4096×128 with
//     one right-hand side allocates, coordinator and workers together,
//     stay under 0.75 × the bytes of the matrix and RHS: a worker holds one
//     chunk, never its shard, so a shard-sized buffer, frame or copy breaks
//     the bound. The least of three runs counts, since a collection mid-run
//     can empty the pools; under the race detector, where sync.Pool drops
//     puts at random, the row is only run.
func TestDistRunAllocations(t *testing.T) {
	type shape struct{ m, n, nrhs, w int }
	type counter struct {
		name  string
		exact bool // the bound is the exact count, not an exclusive upper bound
		count func(t *testing.T, w int, a, b *tile.Dense[float64]) float64
	}
	// run solves a and b (nil for R alone) on w workers.
	run := func(t *testing.T, w int, a, b *tile.Dense[float64]) *Result[float64] {
		c, err := NewCoordinator(Config{Workers: w, NB: 64, IB: 16, LocalWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		errs := SpawnLocal(context.Background(), c.Addr(), w)
		res, err := Run(context.Background(), c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		joinWorkers(t, errs, w)
		return res
	}
	sent := counter{"sent", true, func(t *testing.T, w int, a, b *tile.Dense[float64]) float64 {
		return float64(run(t, w, a, b).Stats.BytesSent)
	}}
	alloc := counter{"alloc", false, func(t *testing.T, w int, a, b *tile.Dense[float64]) float64 {
		warm := func() float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(t, w, a, b)
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc - before.TotalAlloc)
		}
		warm() // warms the frame, staging and plan pools
		return min(warm(), warm(), warm())
	}}
	type row struct {
		shape   shape
		counter counter
		bound   float64
	}
	var rows []row
	for w := 1; w <= 4; w++ {
		for _, nrhs := range []int{0, 1, 3} {
			const m, n = 4096, 128
			frames := w*(HeaderLen+aggLen[float64](n, nrhs)) + (w-1)*HeaderLen
			rows = append(rows, row{shape{m, n, nrhs, w}, sent, float64(frames)})
		}
	}
	rows = append(rows, row{shape{4096, 128, 1, 2}, alloc, 0.75 * (4096*128 + 4096) * 8})
	for _, tc := range rows {
		sh := tc.shape
		t.Run(fmt.Sprintf("%s/%dx%d/nrhs=%d/W=%d", tc.counter.name, sh.m, sh.n, sh.nrhs, sh.w), func(t *testing.T) {
			a := tile.RandDense[float64](sh.m, sh.n, 1)
			var b *tile.Dense[float64]
			if sh.nrhs > 0 {
				b = tile.RandDense[float64](sh.m, sh.nrhs, 2)
			}
			got := tc.counter.count(t, sh.w, a, b)
			switch {
			case tc.counter.exact && got != tc.bound:
				t.Errorf("%s %.0f bytes, want %.0f", tc.counter.name, got, tc.bound)
			case tc.counter.exact:
			case raceEnabled: // sync.Pool drops puts at random
				t.Logf("%s %.2f MB, bound %.2f MB not asserted under -race", tc.counter.name, got/1e6, tc.bound/1e6)
			case got >= tc.bound:
				t.Errorf("%s %.2f MB, want < %.2f MB", tc.counter.name, got/1e6, tc.bound/1e6)
			default:
				t.Logf("%s %.2f MB, bound %.2f MB", tc.counter.name, got/1e6, tc.bound/1e6)
			}
		})
	}
	assertNoGoroutines(t)
}
