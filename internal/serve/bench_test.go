package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"tiledqr"
)

// solveBody is the body of the repository benchmark's dominant request: a
// double-precision solve of 1024×128 standard-normal values against one
// right-hand side, encoded by encoding/json (2.6 MB, 132 096 numbers).
func solveBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(5))
	normal := func(rows, cols int) *Matrix {
		m := &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	body, err := json.Marshal(solveRequest{Precision: "d", Matrix: normal(1024, 128), RHS: normal(1024, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeStd is the decoder readBody used to run, kept as the reference the
// fuzz target and the decode benchmark compare against.
func decodeStd(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// BenchmarkDecodeBody sets the request decoder beside encoding/json on the
// same body: the attribution the benchmark harness, whose own decode probe
// times encoding/json, cannot give.
func BenchmarkDecodeBody(b *testing.B) {
	body := solveBody(b)
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req solveRequest
			if err := decodeStd(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req solveRequest
			if err := decodeBody(body, math.MaxInt, req.fields()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandleSolve runs the whole /v1/solve handler in process — read,
// decode, hash, factor, solve, encode — on the benchmark's request, which
// has the coalescer to itself and so waits for nobody.
func BenchmarkHandleSolve(b *testing.B) {
	rt := tiledqr.NewRuntime(2)
	defer rt.Close()
	s := New(Config{Runtime: rt}) // qrserve's configuration
	defer s.Close()
	body := solveBody(b)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
