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
func runDistVsLocal[T vec.Scalar](t *testing.T, m, n, nrhs, W, rounds int, tol float64) {
	t.Helper()
	a := tile.RandDense[T](m, n, 7)
	var b *tile.Dense[T]
	if nrhs > 0 {
		b = tile.RandDense[T](m, nrhs, 8)
	}
	runDist(t, a, b, W, rounds, tol)
}

// runDist is runDistVsLocal on a given a and b (nil for R alone).
func runDist[T vec.Scalar](t *testing.T, a, b *tile.Dense[T], W, rounds int, tol float64) {
	t.Helper()
	m, n, nrhs := a.Rows, a.Cols, 0
	if b != nil {
		nrhs = b.Cols
	}
	c, err := NewCoordinator(Config{
		Workers: W, NB: 32, IB: 8, Rounds: rounds, LocalWorkers: 1,
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
	for _, ws := range res.Stats.PerWorker {
		if ws.Rounds != rounds {
			t.Fatalf("rank %d completed %d rounds, want %d", ws.Rank, ws.Rounds, rounds)
		}
	}

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
// non-power-of-two worker count and multiple free-running rounds, and a
// run without right-hand side must return R alone.
func TestDistMatchesLocal(t *testing.T) {
	t.Run("double", distAgreement[float64](1e-12))
	t.Run("double-complex", distAgreement[complex128](1e-12))
	t.Run("single", distAgreement[float32](2e-4))
	t.Run("single-complex", distAgreement[complex64](2e-4))
	t.Run("double-R-only", func(t *testing.T) { runDistVsLocal[float64](t, 256, 64, 0, 3, 2, 1e-12) })
}

// distAgreement is one precision's agreement suite: shards of one chunk
// over two rounds, then three workers whose shards span three chunks, the
// last of them ragged (not whole tiles), in one round — the streamed
// appends alone make the result — for 0, 1 and 3 right-hand sides; the
// same with a and b strided, which the coordinator packs before it ships
// them; the same with the packing wire path forced on both sides, the one
// a big-endian host takes; and two rounds, the second of which re-appends
// the retained shard.
func distAgreement[T vec.Scalar](tol float64) func(*testing.T) {
	return func(t *testing.T) {
		runDistVsLocal[T](t, 256, 64, 2, 3, 2, tol)
		const n, W = 64, 3
		step := chunkRows[T](n, 32)
		m := W*(2*step+43) + 1 // the last chunk 43 or 44 rows
		for _, nrhs := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("chunked-nrhs=%d", nrhs), func(t *testing.T) { runDistVsLocal[T](t, m, n, nrhs, W, 1, tol) })
		}
		t.Run("strided", func(t *testing.T) {
			runDist(t, tile.RandDense[T](m, n+3, 7).View(0, 0, m, n), tile.RandDense[T](m, 5, 8).View(0, 0, m, 2), W, 1, tol)
		})
		t.Run("packed", func(t *testing.T) {
			defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
			hostLittleEndian = false
			runDistVsLocal[T](t, m, n, 1, W, 1, tol)
		})
		t.Run("rounds=2", func(t *testing.T) { runDistVsLocal[T](t, m, n, 1, W, 2, tol) })
	}
}

// TestDistSingleWorker degenerates the tree to nothing: one shard, no
// peer traffic, still the right answer.
func TestDistSingleWorker(t *testing.T) {
	runDistVsLocal[float64](t, 128, 32, 1, 1, 1, 1e-12)
}

// TestDistPowerOfTwoWorkers runs the full-depth binary tree for enough
// free-running rounds that the bounded send queues fill and apply
// backpressure, then requires that nothing is left running.
func TestDistPowerOfTwoWorkers(t *testing.T) {
	runDistVsLocal[float64](t, 512, 64, 1, 4, 16, 1e-12)
	assertNoGoroutines(t)
}

// TestDistCancel cancels a long run in the middle of a round: Run returns
// context.Canceled at once, and every worker aborts mid-round with an
// error naming the lost coordinator connection — the SIGTERM semantics of
// cmd/qrdist.
func TestDistCancel(t *testing.T) {
	// Far more rounds than any host finishes before the cancel below fires
	// (a round of this shape is ~0.25 ms). The 192×32 matrix is shipped
	// once, 96 rows a worker.
	const W, rounds = 2, 1_000_000
	c, err := NewCoordinator(Config{Workers: W, NB: 32, IB: 8, Rounds: rounds, LocalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := SpawnLocal(context.Background(), c.Addr(), W)
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancelled <- time.Now()
		cancel()
	}()
	_, err = Run(ctx, c, tile.RandDense[float64](192, 32, 42), tile.RandDense[float64](192, 1, 43))
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
	c, err := NewCoordinator(Config{Workers: W, NB: 32, IB: 8, Rounds: 4, LocalWorkers: 1})
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
// right-hand side, then frames that do not fit it. Each must end the worker
// with a named error, also reported to the coordinator in an Err frame,
// and never with a panic or a silently zero-filled shard.
func TestDistWorkerRefusesBadChunks(t *testing.T) {
	const rows, n = 12, 4
	chunk := func(kind, prec byte, seq, r, c int) *Frame {
		return &Frame{Kind: kind, Prec: prec, Seq: uint32(seq), Rows: uint32(r), Cols: uint32(c), Payload: make([]byte, r*c*8)}
	}
	for _, tc := range []struct {
		name   string
		frames []*Frame
		want   string
	}{
		{"too-many-rows", []*Frame{chunk(KindShard, 'd', 0, rows+3, n)}, "chunk of 15 rows at row 0, want 1 to 12"},
		{"wrong-seq", []*Frame{chunk(KindShard, 'd', 4, 4, n)}, "chunk starts at row 4, want row 0"},
		{"wrong-cols", []*Frame{chunk(KindShard, 'd', 0, 4, n+1)}, "chunk of 5 columns, want 4"},
		{"wrong-precision", []*Frame{chunk(KindShard, 's', 0, 4, n)}, `precision 's' at row 0, want 'd'`},
		{"short-payload", []*Frame{{Kind: KindShard, Prec: 'd', Rows: 4, Cols: n, Payload: make([]byte, 4*n*8-8)}}, "chunk of 4×4 in 120 bytes, want 128"},
		{"rhs-rows-differ", []*Frame{chunk(KindShard, 'd', 0, 8, n), chunk(KindRHS, 'd', 0, 4, 1)}, "RHS chunk of 4 rows at row 0, shard chunk of 8"},
		{"early-frame", []*Frame{chunk(KindShard, 'd', 0, 8, n), chunk(KindRHS, 'd', 0, 8, 1), {Kind: KindDone}}, "frame kind 8 at row 8, want kind 3"},
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
				ShardRows: rows, N: n, NRHS: 1, NB: 4, IB: 2, Rounds: 1, LocalWorkers: 1}
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
				if err == nil || !errors.Is(err, errBadChunk) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("worker exited with %v, want %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker still running 5s after a bad chunk")
			}
			assertNoGoroutines(t)
		})
	}
}

// TestDistRunAllocations holds a distributed run to its input: a warm
// 2-worker Run of dist_round's 4096×128 with one right-hand side may
// allocate, coordinator and both workers together, less than 1.5× the
// bytes of the matrix and RHS. The workers' retained shards alone are those
// bytes, so a shard-sized frame buffer, pack or unpack copy breaks the
// bound. The least of three runs counts, since a collection mid-run can
// empty the pools; under the race detector the runs are only run.
func TestDistRunAllocations(t *testing.T) {
	const m, n, W = 4096, 128, 2
	a, b := tile.RandDense[float64](m, n, 1), tile.RandDense[float64](m, 1, 2)
	run := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := NewCoordinator(Config{Workers: W, NB: 64, IB: 16, LocalWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		errs := SpawnLocal(context.Background(), c.Addr(), W)
		if _, err := Run(context.Background(), c, a, b); err != nil {
			t.Fatal(err)
		}
		joinWorkers(t, errs, W)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	run() // warms the frame, staging and plan pools
	got := min(run(), run(), run())
	input := float64((m*n + m) * 8)
	t.Logf("a warm run allocated %.2f MB for %.2f MB of input", got/1e6, input/1e6)
	if got >= 1.5*input && !raceEnabled {
		t.Errorf("a warm run allocated %.2f MB, want < 1.5 × %.2f MB of input", got/1e6, input/1e6)
	}
	assertNoGoroutines(t)
}
