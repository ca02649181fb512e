package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainUnderLoad drives concurrent solves while StartDrain fires
// mid-flight: every response must be a clean 200 (admitted before the drain)
// or 503 (after), in-flight work runs to completion, and AwaitIdle returns.
// Run with -race: the drain flag, in-flight counter and idler list are all
// touched from every request goroutine.
func TestDrainUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := wellConditioned(16, 6, "d")
	rhs := matTimesOnes(a, "d", 1)

	const clients = 8
	var wg sync.WaitGroup
	var ok, unavailable, other atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch code := postJSON(t, ts.URL+"/v1/solve", solveRequest{Matrix: a, RHS: rhs}, nil); code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					unavailable.Add(1)
					return // the server is gone for good; stop hammering
				default:
					other.Add(1)
					return
				}
			}
		}()
	}

	// Let traffic flow, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle: %v", err)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("idle server reports %d in-flight requests", n)
	}
	close(stop)
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 503", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded before the drain")
	}
	// Post-drain requests are refused deterministically.
	if code := postJSON(t, ts.URL+"/v1/solve", solveRequest{Matrix: a, RHS: rhs}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request after drain: status %d, want 503", code)
	}
	if !s.Draining() {
		t.Fatal("Draining() is false after StartDrain")
	}
}

// TestAwaitIdleImmediate returns at once on an idle server.
func TestAwaitIdleImmediate(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle on idle server: %v", err)
	}
}

// TestSessionEvictionRace hammers one stream session with appends while the
// TTL evictor sweeps with an aggressive timeout. Under -race this exercises
// the table-lock/session-lock split: every response must be 200 (append won)
// or 404 (eviction won) — never a torn state.
func TestSessionEvictionRace(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: 5 * time.Millisecond})
	batch := wellConditioned(4, 2, "d")

	var wg sync.WaitGroup
	var appends, recreates, other atomic.Int64
	const workers = 4
	deadline := time.Now().Add(300 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := ""
			for time.Now().Before(deadline) {
				if id == "" {
					var created streamCreateReply
					if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 2}, &created); code != http.StatusOK {
						other.Add(1)
						return
					}
					id = created.ID
					recreates.Add(1)
				}
				switch code := postJSON(t, ts.URL+"/v1/streams/"+id+"/rows", streamRowsRequest{Batch: batch}, nil); code {
				case http.StatusOK:
					appends.Add(1)
				case http.StatusNotFound:
					id = "" // evicted between requests: rebuild
				default:
					other.Add(1)
					return
				}
			}
		}()
	}
	// The evictor races the appenders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.sessions.sweep()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 404", other.Load())
	}
	if appends.Load() == 0 {
		t.Fatal("no append ever succeeded")
	}
	t.Logf("%d appends, %d session (re)creations under eviction pressure", appends.Load(), recreates.Load())
}

// TestSessionTTLEviction checks the lazy sweep itself: an idle session ages
// out, and the table bound counts only live sessions.
func TestSessionTTLEviction(t *testing.T) {
	tbl := newSessionTable(10*time.Millisecond, 2)
	s1 := &session{prec: "d"}
	if err := tbl.add(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.get(s1.id); err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	tbl.sweep()
	if _, err := tbl.get(s1.id); err != errNoSession {
		t.Fatalf("expired session lookup: %v, want errNoSession", err)
	}
	if tbl.count() != 0 {
		t.Fatalf("count after eviction: %d", tbl.count())
	}
	// A table full of dead sessions admits new ones.
	for i := 0; i < 2; i++ {
		if err := tbl.add(&session{prec: "d"}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := tbl.add(&session{prec: "d"}); err != errSessionLimit {
		t.Fatalf("over-limit add: %v, want errSessionLimit", err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := tbl.add(&session{prec: "d"}); err != nil {
		t.Fatalf("add after everyone expired: %v", err)
	}
}

// TestConcurrentSessionChurn creates, uses and deletes sessions from many
// goroutines at once against a small table bound.
func TestConcurrentSessionChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 8})
	batch := wellConditioned(4, 2, "d")
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var created streamCreateReply
				code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 2}, &created)
				if code == http.StatusTooManyRequests {
					continue // table momentarily full: fine
				}
				if code != http.StatusOK {
					bad.Add(1)
					return
				}
				if code := postJSON(t, ts.URL+"/v1/streams/"+created.ID+"/rows", streamRowsRequest{Batch: batch}, nil); code != http.StatusOK {
					bad.Add(1)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+created.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					bad.Add(1)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					bad.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d unexpected failures during session churn", bad.Load())
	}
}
