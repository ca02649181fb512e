package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiledqr"
)

// newTestServer builds a Server on a small private runtime plus an httptest
// front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	rt := tiledqr.NewRuntime(2)
	t.Cleanup(rt.Close)
	cfg.Runtime = rt
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body and decodes the JSON response into out (may be nil).
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response from %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response from %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// complexTag reports whether a precision tag carries interleaved re/im data.
func complexTag(prec string) bool { return prec == "z" || prec == "c" }

// testMatrix builds a wire matrix from an element function; for complex
// precisions every element is (f, 0), so one real-valued oracle covers all
// four domains while still exercising the interleaved wire layout.
func testMatrix(rows, cols int, prec string, f func(i, j int) float64) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols}
	if complexTag(prec) {
		m.Data = make([]float64, 2*rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Data[2*(i*cols+j)] = f(i, j)
			}
		}
		return m
	}
	m.Data = make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Data[i*cols+j] = f(i, j)
		}
	}
	return m
}

// wellConditioned is a diagonally dominant full-rank test matrix.
func wellConditioned(rows, cols int, prec string) *Matrix {
	return testMatrix(rows, cols, prec, func(i, j int) float64 {
		v := 1 / float64(1+abs(i-j))
		if i == j {
			v += float64(cols)
		}
		return v
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// matTimesOnes returns b = scale · A·1, the right-hand side whose exact
// least-squares solution is scale·ones (A has full column rank and b lies in
// its range only when A is square; for tall A the system A·x = b with
// b = A·1 is still consistent, so x = 1 exactly).
func matTimesOnes(a *Matrix, prec string, scale float64) *Matrix {
	cplx := complexTag(prec)
	at := func(i, j int) float64 {
		if cplx {
			return a.Data[2*(i*a.Cols+j)]
		}
		return a.Data[i*a.Cols+j]
	}
	return testMatrix(a.Rows, 1, prec, func(i, _ int) float64 {
		sum := 0.0
		for j := 0; j < a.Cols; j++ {
			sum += at(i, j)
		}
		return scale * sum
	})
}

// solutionAt reads element (i,0) of a returned solution.
func solutionAt(x *Matrix, prec string, i int) float64 {
	if complexTag(prec) {
		return x.Data[2*i*x.Cols]
	}
	return x.Data[i*x.Cols]
}

func tolFor(prec string) float64 {
	if prec == "s" || prec == "c" {
		return 1e-3
	}
	return 1e-8
}

func TestSolveAllPrecisions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, prec := range []string{"d", "z", "s", "c"} {
		t.Run(prec, func(t *testing.T) {
			a := wellConditioned(12, 5, prec)
			rhs := matTimesOnes(a, prec, 1)
			var reply solveReply
			if code := postJSON(t, ts.URL+"/v1/solve", solveRequest{Precision: prec, Matrix: a, RHS: rhs}, &reply); code != http.StatusOK {
				t.Fatalf("solve (%s): status %d", prec, code)
			}
			if reply.X == nil || reply.X.Rows != 5 || reply.X.Cols != 1 {
				t.Fatalf("solve (%s): bad solution shape %+v", prec, reply.X)
			}
			for i := 0; i < 5; i++ {
				if got := solutionAt(reply.X, prec, i); math.Abs(got-1) > tolFor(prec) {
					t.Fatalf("solve (%s): x[%d] = %v, want 1", prec, i, got)
				}
			}
		})
	}
}

func TestFactorAllPrecisions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, prec := range []string{"d", "z", "s", "c"} {
		a := wellConditioned(16, 8, prec)
		var reply factorReply
		if code := postJSON(t, ts.URL+"/v1/factor", factorRequest{Precision: prec, Matrix: a}, &reply); code != http.StatusOK {
			t.Fatalf("factor (%s): status %d", prec, code)
		}
		if reply.R == nil || reply.R.Cols != 8 {
			t.Fatalf("factor (%s): bad R %+v", prec, reply.R)
		}
		if reply.TaskCount < 1 {
			t.Fatalf("factor (%s): task count %d", prec, reply.TaskCount)
		}
		// R must be upper triangular: below-diagonal entries (within the
		// leading Cols rows) vanish.
		for i := 1; i < reply.R.Cols && i < reply.R.Rows; i++ {
			for j := 0; j < i; j++ {
				if got := math.Abs(solutionRC(reply.R, prec, i, j)); got > tolFor(prec) {
					t.Fatalf("factor (%s): R[%d,%d] = %v, want 0", prec, i, j, got)
				}
			}
		}
	}
}

func solutionRC(m *Matrix, prec string, i, j int) float64 {
	if complexTag(prec) {
		return m.Data[2*(i*m.Cols+j)]
	}
	return m.Data[i*m.Cols+j]
}

func TestStreamLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := wellConditioned(8, 3, "d")
	rhs := matTimesOnes(a, "d", 1)

	var created streamCreateReply
	if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 3}, &created); code != http.StatusOK {
		t.Fatalf("stream create: status %d", code)
	}
	if created.ID == "" {
		t.Fatalf("stream create: reply %+v", created)
	}

	var rowsReply streamRowsReply
	if code := postJSON(t, ts.URL+"/v1/streams/"+created.ID+"/rows",
		streamRowsRequest{Batch: a, RHS: rhs}, &rowsReply); code != http.StatusOK {
		t.Fatalf("stream rows: status %d", code)
	}
	if rowsReply.Rows != 8 {
		t.Fatalf("stream rows: got %d rows, want 8", rowsReply.Rows)
	}

	var solveReplyS streamSolveReply
	if code := getJSON(t, ts.URL+"/v1/streams/"+created.ID+"/solve", &solveReplyS); code != http.StatusOK {
		t.Fatalf("stream solve: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if got := solutionAt(solveReplyS.X, "d", i); math.Abs(got-1) > 1e-8 {
			t.Fatalf("stream solve: x[%d] = %v, want 1", i, got)
		}
	}
	if solveReplyS.Residual > 1e-8 {
		t.Fatalf("stream solve: residual %v for a consistent system", solveReplyS.Residual)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+created.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stream delete: status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/streams/"+created.ID+"/solve", nil); code != http.StatusNotFound {
		t.Fatalf("solve after delete: status %d, want 404", code)
	}
}

func TestStatszShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := wellConditioned(8, 4, "d")
	if code := postJSON(t, ts.URL+"/v1/factor", factorRequest{Matrix: a}, nil); code != http.StatusOK {
		t.Fatalf("factor: status %d", code)
	}
	var st Statsz
	if code := getJSON(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if st.Runtime.Workers != 2 {
		t.Fatalf("statsz: workers = %d, want 2", st.Runtime.Workers)
	}
	if st.Server.Requests < 1 || st.Server.Factorizations < 1 {
		t.Fatalf("statsz: requests=%d factorizations=%d, want ≥ 1",
			st.Server.Requests, st.Server.Factorizations)
	}
	ep, ok := st.Endpoints["factor"]
	if !ok || ep.Count < 1 || ep.P99MS <= 0 {
		t.Fatalf("statsz: factor endpoint stats %+v", ep)
	}
	// Options the library refuses never reach the runtime: the request is
	// counted, the factorization that did not happen is not.
	refused := factorRequest{Matrix: a, Options: &wireOptions{TileSize: 8, InnerBlock: 16}}
	if code := postJSON(t, ts.URL+"/v1/factor", refused, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("factor with inner_block > tile_size: status %d, want 422", code)
	}
	var after Statsz
	if code := getJSON(t, ts.URL+"/statsz", &after); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if after.Server.Requests != st.Server.Requests+1 || after.Server.Factorizations != st.Server.Factorizations {
		t.Fatalf("statsz after a refused factor: requests %d → %d, factorizations %d → %d, want +1 and +0",
			st.Server.Requests, after.Server.Requests, st.Server.Factorizations, after.Server.Factorizations)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown precision", "/v1/factor", factorRequest{Precision: "q", Matrix: wellConditioned(4, 2, "d")}, 400},
		{"bad data length", "/v1/factor", factorRequest{Matrix: &Matrix{Rows: 2, Cols: 2, Data: []float64{1}}}, 400},
		{"missing matrix", "/v1/factor", factorRequest{}, 400},
		{"algorithm in any case", "/v1/factor", factorRequest{Matrix: wellConditioned(4, 2, "d"),
			Options: &wireOptions{Algorithm: "FIBONACCI", Kernels: "ts"}}, 200},
		{"unknown algorithm", "/v1/factor", factorRequest{Matrix: wellConditioned(4, 2, "d"),
			Options: &wireOptions{Algorithm: "sameh-kuck"}}, 400},
		{"algorithm whose parameter has no wire field", "/v1/factor", factorRequest{Matrix: wellConditioned(4, 2, "d"),
			Options: &wireOptions{Algorithm: "plasmatree"}}, 400},
		{"unknown kernel family", "/v1/factor", factorRequest{Matrix: wellConditioned(4, 2, "d"),
			Options: &wireOptions{Kernels: "tq"}}, 400},
		{"solve underdetermined", "/v1/solve", solveRequest{
			Matrix: wellConditioned(2, 4, "d"), RHS: wellConditioned(2, 1, "d")}, 400},
		{"solve rhs mismatch", "/v1/solve", solveRequest{
			Matrix: wellConditioned(4, 2, "d"), RHS: wellConditioned(3, 1, "d")}, 400},
		{"stream without cols", "/v1/streams", streamCreateRequest{}, 400},
		{"unknown session", "/v1/streams/s-missing/rows", streamRowsRequest{Batch: wellConditioned(4, 2, "d")}, 404},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+tc.url, tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
	// Oversized matrices are rejected before allocation.
	_, tsSmall := newTestServer(t, Config{MaxElements: 16})
	if code := postJSON(t, tsSmall.URL+"/v1/factor", factorRequest{Matrix: wellConditioned(8, 4, "d")}, nil); code != 400 {
		t.Errorf("oversized matrix: status %d, want 400", code)
	}
}

func TestSessionLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 2}, nil); code != http.StatusOK {
		t.Fatalf("first session: status %d", code)
	}
	raw, _ := json.Marshal(streamCreateRequest{Cols: 2})
	resp, err := http.Post(ts.URL+"/v1/streams", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d, want 1000", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles not monotonic: p50=%v p99=%v", p50, p99)
	}
	// Bucketed quantiles overestimate by at most one bucket width (≈19%).
	if p50 < 500*time.Microsecond || p50 > 620*time.Microsecond {
		t.Fatalf("p50 %v outside [500µs, 620µs]", p50)
	}
	if h.Mean() < 400*time.Microsecond || h.Mean() > 600*time.Microsecond {
		t.Fatalf("mean %v outside [400µs, 600µs]", h.Mean())
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, prec := range []string{"d", "z", "s", "c"} {
		o, err := opsFor(prec)
		if err != nil {
			t.Fatal(err)
		}
		m := testMatrix(3, 2, prec, func(i, j int) float64 { return float64(10*i + j) })
		if complexTag(prec) {
			// Give the imaginary parts non-zero values too.
			for k := 1; k < len(m.Data); k += 2 {
				m.Data[k] = float64(k)
			}
		}
		if err := o.CheckMatrix(m, 0); err != nil {
			t.Fatalf("%s: check: %v", prec, err)
		}
		got := roundTrip(m, prec)
		if got.Rows != m.Rows || got.Cols != m.Cols || len(got.Data) != len(m.Data) {
			t.Fatalf("%s: shape changed: %+v -> %+v", prec, m, got)
		}
		for k := range m.Data {
			if math.Abs(got.Data[k]-m.Data[k]) > 1e-6 {
				t.Fatalf("%s: data[%d] = %v, want %v", prec, k, got.Data[k], m.Data[k])
			}
		}
	}
}

// roundTrip decodes and re-encodes a wire matrix in the given precision.
func roundTrip(m *Matrix, prec string) *Matrix {
	switch prec {
	case "d":
		return encode(decode[float64](m))
	case "z":
		return encode(decode[complex128](m))
	case "s":
		return encode(decode[float32](m))
	case "c":
		return encode(decode[complex64](m))
	}
	panic(fmt.Sprintf("bad precision %q", prec))
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	s.StartDrain()
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
}

// TestWindowedStreamSession covers the retention wire surface: window and
// forget in the create request, and a bad forget value refused at create.
func TestWindowedStreamSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := wellConditioned(8, 3, "d")
	rhs := matTimesOnes(a, "d", 1)

	// Sliding window: the session stays at the window size as rows stream in.
	var windowed streamCreateReply
	if code := postJSON(t, ts.URL+"/v1/streams",
		streamCreateRequest{Cols: 3, Window: 8, Forget: 0.99}, &windowed); code != http.StatusOK {
		t.Fatalf("windowed create: status %d", code)
	}
	var last streamRowsReply
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/streams/"+windowed.ID+"/rows",
			streamRowsRequest{Batch: a, RHS: rhs}, &last); code != http.StatusOK {
			t.Fatalf("windowed append %d: status %d", i, code)
		}
	}
	if last.Rows != 8 {
		t.Fatalf("windowed session reports %d rows, want window 8", last.Rows)
	}

	// A bad forget factor fails at create.
	if code := postJSON(t, ts.URL+"/v1/streams",
		streamCreateRequest{Cols: 3, Forget: 1.5}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("create with forget 1.5: status %d, want 422", code)
	}
}

// TestWireContract pins the session surface: a session is a stream, so
// there is no factor route under it, no route removes rows from it, a
// create that names a session kind names an unknown field, and a stream
// that would retain every row for removal is refused.
func TestWireContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var created streamCreateReply
	if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 2, Window: 8, Forget: 0.99}, &created); code != http.StatusOK {
		t.Fatalf("create with window 8, forget 0.99: status %d, want 200", code)
	}
	a := wellConditioned(4, 2, "d")
	factorBody, _ := json.Marshal(factorRequest{Matrix: a})
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
		says                     string
	}{
		{"session factor", "POST", "/v1/streams/" + created.ID + "/factor", string(factorBody), http.StatusNotFound, ""},
		{"downdate", "DELETE", "/v1/streams/" + created.ID + "/rows?rows=1", "", http.StatusMethodNotAllowed, ""},
		{"create naming a kind", "POST", "/v1/streams", `{"kind":"stream","cols":2}`, http.StatusBadRequest, `unknown field \"kind\"`},
		{"create retaining every row", "POST", "/v1/streams", `{"cols":2,"window":-1}`, http.StatusBadRequest, "window"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want || !strings.Contains(string(msg), tc.says) {
			t.Errorf("%s: status %d, body %q; want %d saying %q", tc.name, resp.StatusCode, msg, tc.want, tc.says)
		}
		if tc.want == http.StatusMethodNotAllowed && resp.Header.Get("Allow") != "POST" {
			t.Errorf("%s: Allow %q, want the append route's POST", tc.name, resp.Header.Get("Allow"))
		}
	}
}
