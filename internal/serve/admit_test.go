package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tiledqr"
	"tiledqr/internal/fault"
)

// readmeSolve is the README's 3×2 least-squares request.
const readmeSolve = `{"matrix":{"rows":3,"cols":2,"data":[1,0,1,1,1,2]},"rhs":{"rows":3,"cols":1,"data":[1,2,3]}}`

// awaitInFlight polls until the server has n compute requests in flight.
func awaitInFlight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", s.InFlight(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledBodiesDoNotDelayOthers: clients that send their headers and
// the start of a body and then stall hold nothing another client waits for.
// 33 of them is one more than any count of running requests a quota could
// have allowed by default.
func TestStalledBodiesDoNotDelayOthers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	addr := ts.Listener.Addr().String()
	const stalled = 33
	for range stalled {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() }) // runs before ts.Close, which waits for these handlers
		fmt.Fprintf(c, "POST /v1/solve HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"matrix\":", addr)
	}
	awaitInFlight(t, s, stalled)

	client := &http.Client{Timeout: 2 * time.Second}
	start := time.Now()
	resp, err := client.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(readmeSolve))
	if err != nil {
		t.Fatalf("solve beside %d stalled bodies: %v after %v", stalled, err, time.Since(start))
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve beside %d stalled bodies: status %d, want 200", stalled, resp.StatusCode)
	}
}

// TestNoPerHeaderState: no request header makes the server keep anything
// after the request is answered, however many distinct values clients send.
func TestNoPerHeaderState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; heap growth is not the server's")
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	del := func(tenant string) {
		req := httptest.NewRequest(http.MethodDelete, "/v1/streams/s-missing", nil)
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("delete of an unknown session: status %d, want 404", rec.Code)
		}
	}
	del("warm-up")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range 20000 {
		del("tenant-" + strconv.Itoa(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("20000 distinct X-Tenant values grew the heap by %d bytes, want < 1 MiB", grew)
	}
}

// TestStreamAppendSurvivesHangUp: a client that hangs up while its append
// is merging leaves the session serving. The append runs to completion and
// only its reply is lost.
func TestStreamAppendSurvivesHangUp(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var created streamCreateReply
	// Tiles of 4 on 8 columns: a merge is several tasks, so a cancel that
	// lands during the first one would stop the rest.
	if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 8, Options: &wireOptions{TileSize: 4}}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	rows := ts.URL + "/v1/streams/" + created.ID + "/rows"
	batch := streamRowsRequest{Batch: wellConditioned(8, 8, "d")}
	if code := postJSON(t, rows, batch, nil); code != http.StatusOK {
		t.Fatalf("first append: status %d", code)
	}

	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Times: 1, Stall: 300 * time.Millisecond})
	defer fault.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // hang up once the merge is stalled in its first task
		for fault.Injected() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rows, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("stalled append answered %d before its client hung up", resp.StatusCode)
	}
	fault.Reset()

	var got streamRowsReply
	if code := postJSON(t, rows, batch, &got); code != http.StatusOK {
		t.Fatalf("append after a client hung up mid-append: status %d, want 200", code)
	}
	if got.Rows != 24 {
		t.Fatalf("rows %d after three appends of 8, want 24", got.Rows)
	}
}

// TestBodyBudget holds compute's reservation of request-body bytes: a
// request whose declared length does not fit the remaining budget is a 429,
// and whatever way a request ends, its reservation is returned.
func TestBodyBudget(t *testing.T) {
	const limit = 1 << 12
	s, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	addr := ts.Listener.Addr().String()
	post := func(body string) string {
		return fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s", addr, len(body), body)
	}
	solve, oversized := post(readmeSolve), strings.Repeat(" ", 2*limit)
	tests := []struct {
		name     string
		reserved int64  // body bytes other requests hold when this one arrives
		req      string // the raw request
		hangUp   bool   // close the connection once the request is in its handler
		want     int
	}{
		{name: "solved", req: solve, want: http.StatusOK},
		{name: "bad body", req: post(`{"matrix":1}`), want: http.StatusBadRequest},
		{name: "declared too large", req: post(oversized), want: http.StatusRequestEntityTooLarge},
		{
			name: "chunked too large",
			req: fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: %s\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n",
				addr, len(oversized), oversized),
			want: http.StatusRequestEntityTooLarge,
		},
		{name: "over the budget", reserved: bodyBudget*limit - 10, req: solve, want: http.StatusTooManyRequests},
		{name: "hang-up mid-body", req: solve[:len(solve)-10], hangUp: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var st0, st1 Statsz
			getJSON(t, ts.URL+"/statsz", &st0)
			s.bodyBytes.Store(tc.reserved)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write([]byte(tc.req)); err != nil {
				t.Fatal(err)
			}
			if tc.hangUp {
				awaitInFlight(t, s, 1)
				c.Close()
			} else {
				resp, err := http.ReadResponse(bufio.NewReader(c), nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
				}
				if tc.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Fatal("429 without Retry-After")
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.AwaitIdle(ctx); err != nil {
				t.Fatalf("request still in flight: %v", err)
			}
			if got := s.bodyBytes.Load(); got != tc.reserved {
				t.Fatalf("%d body bytes reserved after the request, want %d", got, tc.reserved)
			}
			s.bodyBytes.Store(0)
			getJSON(t, ts.URL+"/statsz", &st1)
			var want uint64
			if tc.want == http.StatusTooManyRequests {
				want = 1
			}
			if throttled := st1.Server.Throttled - st0.Server.Throttled; throttled != want {
				t.Fatalf("/statsz counts %d more throttled, want %d", throttled, want)
			}
		})
	}
}

// TestReadDeadlineEndsWithTheBody: cmd/qrserve's ReadTimeout bounds reading
// a request, not computing it. net/http lifts the connection's read deadline
// once the body is read to its end, so the request's context is not
// cancelled when the deadline passes and a factorization that outlasts the
// timeout still answers 200.
func TestReadDeadlineEndsWithTheBody(t *testing.T) {
	rt := tiledqr.NewRuntime(2)
	t.Cleanup(rt.Close)
	s := New(Config{Runtime: rt})
	t.Cleanup(s.Close)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout = 100 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	fault.Set(fault.Config{Mode: fault.ModeStall, Kind: fault.AnyKind, Prec: "d", Times: 1, Stall: 300 * time.Millisecond})
	defer fault.Reset()
	// Tiles of 4 on an 8×8 matrix: tasks after the stalled first one would
	// see a cancelled context.
	req := factorRequest{Matrix: wellConditioned(8, 8, "d"), Options: &wireOptions{TileSize: 4}}
	if code := postJSON(t, ts.URL+"/v1/factor", req, nil); code != http.StatusOK {
		t.Fatalf("factor that outlasts the read timeout: status %d, want 200", code)
	}
	if fault.Injected() != 1 {
		t.Fatalf("%d stalls injected, want 1", fault.Injected())
	}
}
