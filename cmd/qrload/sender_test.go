package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"tiledqr"
	"tiledqr/internal/serve"
)

// TestSenderBodies sends one hand-assembled request of every kind, in every
// precision, with and without options and a shared matrix, to an in-process
// server: each must be a body the server reads and answers 200.
func TestSenderBodies(t *testing.T) {
	rt := tiledqr.NewRuntime(2)
	defer rt.Close()
	srv := serve.New(serve.Config{Runtime: rt})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	send := &sender{client: ts.Client(), sc: &Scenario{BaseURL: ts.URL, Tenant: "t"}, rng: rand.New(rand.NewSource(1))}
	streams := map[int]string{}
	for i, prec := range []string{"d", "z", "s", "c"} {
		ep := &Endpoint{Rows: 12, Cols: 4, RHS: 2, Precision: prec, TileSize: 4 * (i % 2)}
		shared := randMatrix(send.rng, ep.Rows, ep.Cols, isComplex(prec)).AppendJSON(nil)
		for name, do := range map[string]func() (int, error){
			"factor":       func() (int, error) { return send.factor(ep) },
			"solve":        func() (int, error) { return send.solve(ep, nil) },
			"shared solve": func() (int, error) { return send.solve(ep, shared) },
			"stream":       func() (int, error) { return send.stream(ep, streams, i) },
			"stream again": func() (int, error) { return send.stream(ep, streams, i) },
		} {
			if status, err := do(); err != nil || status != http.StatusOK {
				t.Errorf("%s %s: status %d, error %v", prec, name, status, err)
			}
		}
	}
}
