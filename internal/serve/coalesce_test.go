package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"tiledqr"
)

// gatedOps is the double-precision domain with two gates the test holds, so
// that what a request finds in the coalescer is decided by the test and not
// by timing: a factorization announces itself on factoring and waits for
// proceed (nil: factor for real; an error: fail with it; errPanic: panic),
// and a sealed batch announces its size on sealed and waits for solve.
type gatedOps struct {
	ops
	// Both announcement channels hold every announcement a case can make
	// (a full batch's overflow is the second), so a gate the case does not
	// look at never blocks a request.
	factoring chan *Matrix
	sealed    chan int
	proceed   chan error
	solve     chan struct{}
}

var errPanic = errors.New("panic in the factorization")

// newGatedServer registers a gatedOps under the precision tag "gated" for
// the length of the test and builds a server after it, so every server
// goroutine starts after the table was written.
func newGatedServer(t *testing.T) (*gatedOps, *Server, string) {
	t.Helper()
	g := &gatedOps{ops: domains["d"],
		factoring: make(chan *Matrix, 2), sealed: make(chan int, 2),
		proceed: make(chan error), solve: make(chan struct{})}
	domains["gated"] = g
	t.Cleanup(func() { delete(domains, "gated") })
	s, ts := newTestServer(t, Config{})
	return g, s, ts.URL
}

func (g *gatedOps) Precision() string { return "gated" }

func (g *gatedOps) Factor(ctx context.Context, a *Matrix, opt tiledqr.Options, gather func() []*Matrix, st *serverStats) ([]*Matrix, int, error) {
	g.factoring <- a
	if err := <-g.proceed; err == errPanic {
		panic(err)
	} else if err != nil {
		return nil, 0, err
	}
	return g.ops.Factor(ctx, a, opt, func() []*Matrix {
		rhs := gather()
		g.sealed <- len(rhs)
		<-g.solve
		return rhs
	}, st)
}

// solveResult is what one posted solve came back as.
type solveResult struct {
	code int
	solveReply
	apiError
}

// postSolve posts a solve of a against scale·(a·1) — whose solution is
// scale in every component — without waiting for the reply.
func postSolve(t *testing.T, url string, a *Matrix, scale float64) <-chan solveResult {
	done := make(chan solveResult, 1)
	go func() {
		var r solveResult
		r.code = postJSON(t, url+"/v1/solve", solveRequest{Precision: "gated", Matrix: a, RHS: matTimesOnes(a, "d", scale)}, &r)
		done <- r
	}()
	return done
}

// wantSolved checks a reply: 200, the solution of the request's own
// right-hand side, and the size of the batch it was solved in.
func wantSolved(t *testing.T, who string, r solveResult, scale float64, batch int) {
	t.Helper()
	if r.code != http.StatusOK || r.X == nil {
		t.Fatalf("%s: status %d (%s)", who, r.code, r.Error)
	}
	for i := 0; i < r.X.Rows; i++ {
		if got := solutionAt(r.X, "d", i); math.Abs(got-scale) > 1e-8 {
			t.Fatalf("%s: x[%d] = %v, want %v", who, i, got, scale)
		}
	}
	if r.Coalesced != batch {
		t.Fatalf("%s: coalesced = %d, want %d", who, r.Coalesced, batch)
	}
}

// awaitWaiters returns once the open batches hold n waiters between them.
func awaitWaiters(t *testing.T, c *coalescer, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		got := 0
		for _, b := range c.pending {
			got += len(b.waiters)
		}
		c.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters in open batches, want %d", got, n)
		}
	}
}

// entered waits for the next factorization to announce itself. Nothing the
// test does between a post and this call lets a factorization start, so a
// return is that request's factorization having been entered on its own.
func (g *gatedOps) entered(t *testing.T) *Matrix {
	t.Helper()
	select {
	case a := <-g.factoring:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("no factorization was entered")
		return nil
	}
}

func wantCounters(t *testing.T, s *Server, factorizations, batches, coalesced uint64) {
	t.Helper()
	f, b, c := s.stats.factorizations.Load(), s.stats.batches.Load(), s.stats.coalesced.Load()
	if f != factorizations || b != batches || c != coalesced {
		t.Fatalf("factorizations, solve_batches, coalesced_requests = %d, %d, %d; want %d, %d, %d",
			f, b, c, factorizations, batches, coalesced)
	}
	s.coal.mu.Lock()
	defer s.coal.mu.Unlock()
	if n := len(s.coal.pending); n != 0 {
		t.Fatalf("%d batches still pending", n)
	}
}

func TestSolveCoalescing(t *testing.T) {
	t.Run("a burst shares one factorization", func(t *testing.T) {
		g, s, url := newGatedServer(t)
		close(g.solve)
		a := wellConditioned(10, 4, "d")
		const n = 4
		replies := make([]<-chan solveResult, n)
		replies[0] = postSolve(t, url, a, 1)
		g.entered(t)
		for k := 1; k < n; k++ {
			replies[k] = postSolve(t, url, a, float64(k+1))
		}
		awaitWaiters(t, s.coal, n)
		g.proceed <- nil
		for k := range replies {
			wantSolved(t, "burst", <-replies[k], float64(k+1), n)
		}
		if len(g.factoring) != 0 {
			t.Fatal("a second factorization was entered")
		}
		var st Statsz
		if code := getJSON(t, url+"/statsz", &st); code != http.StatusOK {
			t.Fatalf("statsz: status %d", code)
		}
		if st.Server.Factorizations != 1 || st.Server.SolveBatches != 1 || st.Server.CoalescedRequests != n {
			t.Fatalf("statsz: %+v, want 1 factorization, 1 batch, %d coalesced requests", st.Server, n)
		}
	})

	t.Run("a lone request factors at once and a later one starts over", func(t *testing.T) {
		g, s, url := newGatedServer(t)
		a := wellConditioned(10, 4, "d")
		first := postSolve(t, url, a, 1)
		g.entered(t)
		g.proceed <- nil
		if n := <-g.sealed; n != 1 {
			t.Fatalf("sealed with %d right-hand sides, want 1", n)
		}
		// The first batch is sealed and still solving: the same matrix
		// again is a new batch with a factorization of its own.
		second := postSolve(t, url, a, 2)
		g.entered(t)
		close(g.solve)
		g.proceed <- nil
		wantSolved(t, "first", <-first, 1, 1)
		wantSolved(t, "second", <-second, 2, 1)
		wantCounters(t, s, 2, 2, 0)
	})

	t.Run("one differing bit is another matrix", func(t *testing.T) {
		g, s, url := newGatedServer(t)
		close(g.solve)
		plus, minus := wellConditioned(10, 4, "d"), wellConditioned(10, 4, "d")
		plus.Data[7], minus.Data[7] = 0, math.Copysign(0, -1)
		first := postSolve(t, url, plus, 1)
		second := postSolve(t, url, minus, 2)
		// Neither waits for the other's factorization.
		if a, b := g.entered(t), g.entered(t); math.Signbit(a.Data[7]) == math.Signbit(b.Data[7]) {
			t.Fatal("the sign of zero did not survive the wire")
		}
		g.proceed <- nil
		g.proceed <- nil
		wantSolved(t, "+0", <-first, 1, 1)
		wantSolved(t, "−0", <-second, 2, 1)
		wantCounters(t, s, 2, 2, 0)
	})

	t.Run("a full batch admits nobody", func(t *testing.T) {
		g, s, url := newGatedServer(t)
		close(g.solve)
		a := wellConditioned(10, 4, "d")
		replies := make([]<-chan solveResult, maxBatch)
		replies[0] = postSolve(t, url, a, 1)
		g.entered(t)
		for k := 1; k < maxBatch; k++ {
			replies[k] = postSolve(t, url, a, float64(k+1))
		}
		awaitWaiters(t, s.coal, maxBatch)
		overflow := postSolve(t, url, a, -1)
		g.entered(t)
		g.proceed <- nil
		g.proceed <- nil
		for k := range replies {
			wantSolved(t, "batch", <-replies[k], float64(k+1), maxBatch)
		}
		wantSolved(t, "overflow", <-overflow, -1, 1)
		wantCounters(t, s, 2, 2, maxBatch)
	})

	// The hash only finds the batch; with another matrix planted under a
	// request's own key, the request must still not join it.
	t.Run("a colliding hash is another matrix", func(t *testing.T) {
		s, _ := newTestServer(t, Config{})
		a, other := wellConditioned(10, 4, "d"), wellConditioned(10, 4, "d")
		other.Data[0]++
		o, opt := domains["d"], tiledqr.Options{Runtime: s.rt}
		planted := &solveBatch{a: other, waiters: []*solveWaiter{{}}, done: make(chan struct{})}
		close(planted.done) // a request that does join returns at once, empty-handed
		s.coal.pending[s.coal.key(o, a, opt)] = planted
		x, size, err := s.coal.solve(context.Background(), s.baseCtx, o, a, matTimesOnes(a, "d", 3), opt, &s.stats)
		if err != nil || len(planted.waiters) != 1 {
			t.Fatalf("the request joined a batch for another matrix (%d waiters, error %v)", len(planted.waiters), err)
		}
		wantSolved(t, "collider", solveResult{code: http.StatusOK, solveReply: solveReply{X: x, Coalesced: size}}, 3, 1)
	})
}

// TestCoalescedLeaderFailure: however a leader leaves, every request in its
// batch is answered and the batch is gone from the pending map.
func TestCoalescedLeaderFailure(t *testing.T) {
	const n = 4
	t.Run("error", func(t *testing.T) {
		g, s, url := newGatedServer(t)
		a := wellConditioned(10, 4, "d")
		replies := make([]<-chan solveResult, n)
		replies[0] = postSolve(t, url, a, 1)
		g.entered(t)
		for k := 1; k < n; k++ {
			replies[k] = postSolve(t, url, a, float64(k+1))
		}
		awaitWaiters(t, s.coal, n)
		g.proceed <- errors.New("the factorization is out of luck")
		for k := range replies {
			if r := <-replies[k]; r.code != http.StatusUnprocessableEntity || !strings.Contains(r.Error, "out of luck") {
				t.Fatalf("request %d: status %d (%s), want 422 with the factorization's error", k, r.code, r.Error)
			}
		}
		wantCounters(t, s, 0, 1, n)
	})

	t.Run("panic", func(t *testing.T) {
		g, s, _ := newGatedServer(t)
		a, opt := wellConditioned(10, 4, "d"), tiledqr.Options{Runtime: s.rt}
		errs := make(chan error, n)
		solve := func() {
			defer func() {
				if recover() != nil {
					errs <- errPanic
				}
			}()
			_, _, err := s.coal.solve(context.Background(), s.baseCtx, g, a, matTimesOnes(a, "d", 1), opt, &s.stats)
			errs <- err
		}
		go solve()
		g.entered(t)
		for k := 1; k < n; k++ {
			go solve()
		}
		awaitWaiters(t, s.coal, n)
		g.proceed <- errPanic
		panicked := 0
		for k := 0; k < n; k++ {
			switch err := <-errs; err {
			case errPanic:
				panicked++
			case errLeaderFailed:
			default:
				t.Fatalf("a waiter got %v, want %v", err, errLeaderFailed)
			}
		}
		if panicked != 1 {
			t.Fatalf("%d requests panicked, want the leader alone", panicked)
		}
		wantCounters(t, s, 0, 1, n)
	})
}
