package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"tiledqr"
	"tiledqr/internal/model"
	"tiledqr/internal/serve"
	"tiledqr/internal/tile"
)

// Request kinds of the served mix, in the order of their shares.
const (
	kindSolve = iota
	kindFactor
	kindRows
	numKinds
)

var kindName = [numKinds]string{"solve", "factor", "stream_rows"}

// serveShape sizes the three request kinds: a double-precision solve, a
// single-precision factor, and a double-precision stream append.
type serveShape struct {
	solveM, solveN, factorM, factorN, rowsM, rowsN int
}

// The request bodies qrserve reads; its own types are unexported.
type wireSolve struct {
	Precision string        `json:"precision,omitempty"`
	Matrix    *serve.Matrix `json:"matrix"`
	RHS       *serve.Matrix `json:"rhs,omitempty"`
}

type wireRows struct {
	Batch *serve.Matrix `json:"batch"`
	RHS   *serve.Matrix `json:"rhs,omitempty"`
}

type wireReply struct {
	X         *serve.Matrix `json:"x"`
	R         *serve.Matrix `json:"r"`
	TaskCount int           `json:"task_count"`
	Rows      int64         `json:"rows"`
}

// request is one pre-encoded request. The bodies are generated and encoded
// during set-up: the benchmark measures the server, and a generator that
// spent its time in json.Marshal would take that time from the server's
// two cores.
type request struct {
	kind  int
	path  string
	wire  any // what body encodes, kept for the encode replay
	body  []byte
	a, b  *tile.Dense[float64] // solve only: the inputs, for verification
	rows  int
	flops float64
}

func wireMatrix(d *tile.Dense[float64]) *serve.Matrix {
	return &serve.Matrix{Rows: d.Rows, Cols: d.Cols, Data: d.Data[:d.Rows*d.Cols]}
}

// server is a running qrserve: the spawned child in a real run, an
// in-process handler at toy size (the tests must not wait for a build).
type server struct {
	url  string
	pid  int // 0: this process
	stop func()
}

// buildServer compiles cmd/qrserve into the checkout's build directory. It
// is not part of any timed set-up.
func buildServer() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, ".bench_build", "qrserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qrserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/qrserve: %w\n%s", err, out)
	}
	return bin, nil
}

func startServer(e env) (*server, error) {
	if e.toy {
		return startInProcess(), nil
	}
	return startChild(e.serverBin, e.tmp)
}

func startChild(bin, tmp string) (*server, error) {
	addrFile := filepath.Join(tmp, fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", fmt.Sprint(workers))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	go func() { _ = cmd.Wait(); close(exited) }()
	stop := func() {
		_ = cmd.Process.Signal(syscall.SIGTERM) // graceful drain
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
		_ = os.Remove(addrFile)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			return &server{url: "http://" + string(raw), pid: cmd.Process.Pid, stop: stop}, nil
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("qrserve exited before listening")
		default:
		}
		if time.Now().After(deadline) {
			stop()
			return nil, fmt.Errorf("qrserve did not write its address within 10s")
		}
	}
}

func startInProcess() *server {
	rt := tiledqr.NewRuntime(workers)
	s := serve.New(serve.Config{Runtime: rt})
	ts := httptest.NewServer(s.Handler())
	return &server{url: ts.URL, stop: func() { ts.Close(); s.Close(); rt.Close() }}
}

// conn is one keep-alive connection with its own request pools, session and
// seeded sequence of request kinds.
type conn struct {
	client *http.Client
	rng    *rand.Rand
	hand   []int // request kinds dealt from the deck and not yet sent
	pools  [numKinds][]*request
	next   [numKinds]int
	sent   int64 // rows appended to this connection's stream session
	last   *request
	lat    [numKinds][]float64 // client-side latency per kind, ms
}

// serveInst is the served mix: two connections, each sending its next
// request when the previous answer has arrived.
type serveInst struct {
	sh    serveShape
	srv   *server
	conns []*conn
	mu    sync.Mutex
	solve struct { // the last answered solve of connection 0
		req *request
		x   *serve.Matrix
	}
}

func newServeInst(sh serveShape, srv *server, callers int, seed int64) (*serveInst, error) {
	in := &serveInst{sh: sh, srv: srv}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(srv.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("qrserve not healthy within 10s: %v", err)
		}
	}
	for c := 0; c < callers; c++ {
		cn := &conn{
			client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
			rng:    rand.New(rand.NewSource(seed*1000 + int64(c))),
		}
		var created struct {
			ID string `json:"id"`
		}
		body, _ := json.Marshal(map[string]any{"precision": "d", "cols": sh.rowsN})
		if err := in.post(cn, "/v1/streams", body, &created); err != nil {
			return nil, fmt.Errorf("create stream session: %w", err)
		}
		// Each connection has its own matrices, so no two solves in flight
		// ever share one and the server's coalescer never merges them.
		sd := seed*100000 + int64(c)*1000
		for i := 0; i < 4; i++ {
			a := tile.RandDense[float64](sh.solveM, sh.solveN, sd+int64(2*i))
			b := tile.RandDense[float64](sh.solveM, 1, sd+int64(2*i+1))
			cn.add(&request{kind: kindSolve, path: "/v1/solve", a: a, b: b, rows: sh.solveM,
				flops: model.Flops(sh.solveM, sh.solveN),
				wire:  wireSolve{Precision: "d", Matrix: wireMatrix(a), RHS: wireMatrix(b)}})
		}
		for i := 0; i < 2; i++ {
			a := tile.RandDense[float64](sh.factorM, sh.factorN, sd+100+int64(i))
			for k, v := range a.Data {
				a.Data[k] = float64(float32(v)) // what a single-precision client holds
			}
			cn.add(&request{kind: kindFactor, path: "/v1/factor", rows: sh.factorM,
				flops: model.Flops(sh.factorM, sh.factorN),
				wire:  wireSolve{Precision: "s", Matrix: wireMatrix(a)}})
			batch := tile.RandDense[float64](sh.rowsM, sh.rowsN, sd+200+int64(2*i))
			rhs := tile.RandDense[float64](sh.rowsM, 1, sd+201+int64(2*i))
			cn.add(&request{kind: kindRows, path: "/v1/streams/" + created.ID + "/rows", rows: sh.rowsM,
				flops: model.Flops(sh.rowsM+sh.rowsN, sh.rowsN) - model.Flops(sh.rowsN, sh.rowsN),
				wire:  wireRows{Batch: wireMatrix(batch), RHS: wireMatrix(rhs)}})
		}
		in.conns = append(in.conns, cn)
	}
	return in, nil
}

func (cn *conn) add(r *request) {
	var err error
	if r.body, err = json.Marshal(r.wire); err != nil {
		panic(err) // finite floats in plain structs always encode
	}
	cn.pools[r.kind] = append(cn.pools[r.kind], r)
}

// deck is the mix in twentieths: 70 % solves, 10 % factors, 20 % stream
// appends. The three kinds differ tenfold in latency, so the shares are
// chosen to put the median of any few dozen consecutive requests well inside
// the solves' own distribution and not on the step between two kinds, where
// a few requests more of one kind would move it by a factor.
var deck = [20]int{
	kindSolve, kindSolve, kindSolve, kindSolve, kindSolve, kindSolve, kindSolve,
	kindSolve, kindSolve, kindSolve, kindSolve, kindSolve, kindSolve, kindSolve,
	kindFactor, kindFactor,
	kindRows, kindRows, kindRows, kindRows,
}

// pick draws the next request. Kinds are dealt from the deck, shuffled anew
// every twenty requests, and not drawn one by one: the order is random but
// the shares hold in every stretch of the run, so that a segment's median is
// not set by how many solves it happened to draw.
func (cn *conn) pick() *request {
	if len(cn.hand) == 0 {
		cn.hand = append(cn.hand, deck[:]...)
		cn.rng.Shuffle(len(cn.hand), func(i, j int) { cn.hand[i], cn.hand[j] = cn.hand[j], cn.hand[i] })
	}
	k := cn.hand[0]
	cn.hand = cn.hand[1:]
	r := cn.pools[k][cn.next[k]%len(cn.pools[k])]
	cn.next[k]++
	return r
}

// post sends one request, reads the whole answer and decodes it; any status
// but 200 (a 429 too) is an error.
func (in *serveInst) post(cn *conn, path string, body []byte, reply any) error {
	raw, err := in.roundTrip(cn, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, reply)
}

func (in *serveInst) roundTrip(cn *conn, path string, body []byte) ([]byte, error) {
	resp, err := cn.client.Post(in.srv.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

func (in *serveInst) warmOps() int { return 6 }

func (in *serveInst) op(c int, sp *span) (sample, error) {
	cn := in.conns[c]
	r := cn.pick()
	cn.last = r
	out := sample{rows: r.rows, flops: r.flops}
	hs := sp.child("serve.http")
	t0 := time.Now()
	raw, err := in.roundTrip(cn, r.path, r.body)
	cn.lat[r.kind] = append(cn.lat[r.kind], float64(time.Since(t0))/float64(time.Millisecond))
	hs.finish()
	if err != nil {
		return out, err
	}
	ds := sp.child("serve.decode_resp")
	var reply wireReply
	err = json.Unmarshal(raw, &reply)
	ds.finish()
	if err != nil {
		return out, err
	}
	switch r.kind {
	case kindSolve:
		if err := checkMatrix(reply.X, in.sh.solveN, 1); err != nil {
			return out, fmt.Errorf("solve reply: %w", err)
		}
		if c == 0 {
			in.mu.Lock()
			in.solve.req, in.solve.x = r, reply.X
			in.mu.Unlock()
		}
	case kindFactor:
		if err := checkMatrix(reply.R, in.sh.factorN, in.sh.factorN); err != nil {
			return out, fmt.Errorf("factor reply: %w", err)
		}
		if reply.TaskCount < 1 {
			return out, fmt.Errorf("factor reply: task_count %d", reply.TaskCount)
		}
	case kindRows:
		cn.sent += int64(r.rows)
		if reply.Rows != cn.sent {
			return out, fmt.Errorf("stream reply: server holds %d rows, %d were sent", reply.Rows, cn.sent)
		}
	}
	return out, nil
}

func checkMatrix(m *serve.Matrix, rows, cols int) error {
	if m == nil || m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
		return fmt.Errorf("matrix missing or not %d×%d", rows, cols)
	}
	if !finite(m.Data) {
		return fmt.Errorf("matrix has a non-finite entry")
	}
	return nil
}

// replay encodes the request the operation sent: in the timed pass bodies
// are encoded during set-up, so this is the client-side cost a caller that
// encodes per request would add.
func (in *serveInst) replay(c int, sp *span) {
	if r := in.conns[c].last; sp != nil && r != nil {
		es := sp.child("serve.encode_req")
		_, _ = json.Marshal(r.wire)
		es.finish()
	}
}

// verify solves the last answered solve request locally, with another
// elimination tree, kernel family and tile size than the server's, and
// returns ‖x − x_ref‖/‖x_ref‖.
func (in *serveInst) verify() (float64, error) {
	in.mu.Lock()
	r, x := in.solve.req, in.solve.x
	in.mu.Unlock()
	if r == nil {
		return 0, fmt.Errorf("no solve request completed")
	}
	f, err := tiledqr.Factor((*tiledqr.Dense)(r.a), tiledqr.Options{Algorithm: tiledqr.FlatTree, Kernels: tiledqr.TS, TileSize: 64, InnerBlock: 16, Workers: 1})
	if err != nil {
		return 0, err
	}
	ref, err := f.SolveLS((*tiledqr.Dense)(r.b))
	if err != nil {
		return 0, err
	}
	dx, err := relDiff(&tile.Dense[float64]{Rows: x.Rows, Cols: x.Cols, Stride: x.Cols, Data: x.Data}, (*tile.Dense[float64])(ref))
	return dx / eps, err
}

// layers reads the server's own accounting from /statsz and sets it beside
// the client's: every request this instance ever sent is in both.
func (in *serveInst) layers(m metrics) {
	var st serve.Statsz
	resp, err := http.Get(in.srv.url + "/statsz")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	if err != nil {
		return // the metrics stay unset and the run fails as incomplete
	}
	var clientMS, serverMS float64
	var n int
	for k, name := range kindName {
		var lat []float64
		for _, cn := range in.conns {
			lat = append(lat, cn.lat[k]...)
		}
		m.layer("serve."+name+"_p50_ms", median(lat), len(lat))
		for _, v := range lat {
			clientMS += v
		}
		n += len(lat)
		ep := st.Endpoints[name]
		serverMS += ep.MeanMS * float64(ep.Count)
	}
	m.layer("serve.server_p50_ms", st.Endpoints["solve"].P50MS, int(st.Endpoints["solve"].Count))
	m.layer("serve.transport_ms", ratio(clientMS-serverMS, float64(n)), n)
	m.layer("serve.throttled", float64(st.Server.Throttled), 0)
}

func (in *serveInst) peakRSS() float64 {
	if in.srv.pid == 0 {
		return selfPeakRSS()
	}
	return peakRSS(in.srv.pid)
}

func (in *serveInst) close() {
	for _, cn := range in.conns {
		cn.client.CloseIdleConnections()
	}
	in.srv.stop()
}

// serveProbe measures the codec around one solve request with
// encoding/json on the bodies the server reads and writes, and the same
// solve as a direct library call: what share of a served solve is codec.
func serveProbe(m metrics, sh serveShape, budget time.Duration) {
	a := tile.RandDense[float64](sh.solveM, sh.solveN, 5)
	b := tile.RandDense[float64](sh.solveM, 1, 6)
	body, _ := json.Marshal(wireSolve{Precision: "d", Matrix: wireMatrix(a), RHS: wireMatrix(b)})
	m.layer("serve.req_mb", float64(len(body))/1e6, 0)
	dec, decN := timeReps(budget/3, func() {
		var req wireSolve
		d := json.NewDecoder(bytes.NewReader(body))
		d.DisallowUnknownFields()
		if err := d.Decode(&req); err != nil {
			panic(err)
		}
	})
	m.layer("serve.decode_ms", dec, decN)

	rt := tiledqr.NewRuntime(workers)
	defer rt.Close()
	var x *tiledqr.Dense
	compute, computeN := timeReps(budget/3, func() {
		f, err := tiledqr.Factor((*tiledqr.Dense)(a), tiledqr.Options{Runtime: rt})
		if err == nil {
			x, err = f.SolveLS((*tiledqr.Dense)(b))
		}
		if err != nil {
			panic(err)
		}
	})
	m.layer("serve.compute_ms", compute, computeN)

	reply := struct {
		X         *serve.Matrix `json:"x"`
		Coalesced int           `json:"coalesced"`
		ElapsedMS float64       `json:"elapsed_ms"`
	}{X: wireMatrix((*tile.Dense[float64])(x)), Coalesced: 1, ElapsedMS: compute}
	var out []byte
	enc, encN := timeReps(budget/10, func() { out, _ = json.Marshal(reply) })
	m.layer("serve.encode_ms", enc, encN)
	m.layer("serve.resp_kb", float64(len(out))/1e3, 0)
	m.layer("serve.codec_frac", (dec+enc)/(dec+enc+compute), decN)
}
