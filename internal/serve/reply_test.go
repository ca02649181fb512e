package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tiledqr"
)

// TestNonFiniteResultIs422 drives every endpoint that returns a matrix with
// an input whose factorization overflows: ±1e308 entries push R to ±Inf and
// x to NaN. JSON cannot carry either, and the reply must say so — 422 with
// an error naming the field — where it used to be a 200 with an empty body
// (the header was out before the encoder refused the value).
func TestNonFiniteResultIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := testMatrix(4, 2, "d", func(i, j int) float64 { return 1e308 * float64(1-2*((i+j)%2)) })
	rhs := testMatrix(4, 1, "d", func(i, j int) float64 { return 1e308 })
	var stream streamCreateReply
	if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Cols: 2}, &stream); code != http.StatusOK {
		t.Fatalf("create stream: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/streams/"+stream.ID+"/rows", streamRowsRequest{Batch: huge, RHS: rhs}, nil); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	for _, tc := range []struct {
		name, method, path string
		body               any
		field              string
	}{
		{"factor", "POST", "/v1/factor", factorRequest{Matrix: huge}, `\"r\"`},
		{"solve", "POST", "/v1/solve", solveRequest{Matrix: huge, RHS: rhs}, `\"x\"`},
		{"stream solve", "GET", "/v1/streams/" + stream.ID + "/solve", nil, `\"x\"`},
	} {
		raw, _ := json.Marshal(tc.body)
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(raw))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "result "+tc.field+" is not finite") {
			t.Errorf("%s: status %d, body %q; want 422 naming %s", tc.name, resp.StatusCode, msg, tc.field)
		}
	}
}

// TestUnencodableReplyIsNotAnEmpty200 covers what the named check does not:
// any other value the encoder refuses still reaches the client as an error.
func TestUnencodableReplyIsNotAnEmpty200(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.reply(rec, streamSolveReply{X: &Matrix{Rows: 1, Cols: 1, Data: []float64{1}}, Residual: math.Inf(1)})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Fatalf("status %d, body %q; want 422 carrying the encoder's error", rec.Code, rec.Body)
	}
}

// TestDoubleAdoptsWireData pins both halves of the no-copy path: a double-
// precision wire matrix becomes the dense matrix's storage, and nothing a
// request can do with it — factor, solve, coalesced solve, stream append —
// writes to it.
func TestDoubleAdoptsWireData(t *testing.T) {
	a, b := wellConditioned(24, 6, "d"), matTimesOnes(wellConditioned(24, 6, "d"), "d", 2)
	if d := decode[float64](a); &d.Data[0] != &a.Data[0] || d.Stride != a.Cols {
		t.Fatal("decode[float64] copied the wire data")
	}
	if d := decode[float32](a); len(d.Data) != len(a.Data) {
		t.Fatal("decode[float32] must narrow into storage of its own")
	}
	savedA, savedB := append([]float64(nil), a.Data...), append([]float64(nil), b.Data...)
	rt := tiledqr.NewRuntime(2)
	defer rt.Close()
	o, opt, ctx := domains["d"], tiledqr.Options{Runtime: rt, TileSize: 4}, context.Background()
	var stats serverStats
	for _, gather := range []func() []*Matrix{nil, func() []*Matrix { return []*Matrix{b} }, func() []*Matrix { return []*Matrix{b, b} }} {
		if _, _, err := o.Factor(ctx, a, opt, gather, &stats); err != nil {
			t.Fatal(err)
		}
	}
	opt.WindowRows = 30 // the second append evicts: the downdate path runs too
	st, err := o.NewStream(a.Cols, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Append(ctx, a, b); err != nil {
			t.Fatal(err)
		}
	}
	for k, m := range map[string][2][]float64{"matrix": {savedA, a.Data}, "rhs": {savedB, b.Data}} {
		for i := range m[0] {
			if math.Float64bits(m[0][i]) != math.Float64bits(m[1][i]) {
				t.Fatalf("%s value %d was overwritten: %v, sent %v", k, i, m[1][i], m[0][i])
			}
		}
	}
}

// TestStatszDecode checks the decode histograms: present, and counted, for
// an endpoint that has read a body; absent for one that never does.
func TestStatszDecode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postJSON(t, ts.URL+"/v1/factor", factorRequest{Matrix: wellConditioned(8, 4, "d")}, nil); code != http.StatusOK {
		t.Fatalf("factor: status %d", code)
	}
	var st Statsz
	if code := getJSON(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz: status %d", code)
	}
	if d := st.Endpoints["factor"].Decode; d == nil || d.Count != 1 || d.P50MS <= 0 || d.MeanMS > st.Endpoints["factor"].MeanMS {
		t.Errorf("factor decode stats %+v beside %+v", d, st.Endpoints["factor"])
	}
	if d := st.Endpoints["stream_solve"].Decode; d != nil {
		t.Errorf("stream_solve reads no body but reports decode stats %+v", d)
	}
}
