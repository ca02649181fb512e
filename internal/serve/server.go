package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tiledqr"
)

// Config sizes a Server. The zero value of every field selects a sensible
// default; Runtime is the only required field. Solve coalescing has nothing
// to size: its gathering window is the factor time (coalesce.go).
type Config struct {
	// Runtime is the shared worker pool every request's DAG executes on.
	// Admission across concurrent requests is the runtime's weighted-fair
	// scheduler; the server adds only two fail-fast bounds, on the runtime
	// backlog and on request-body bytes in flight (compute).
	Runtime *tiledqr.Runtime

	// MaxBodyBytes bounds a request body (default 64 MiB). The bodies of
	// all requests in flight share a budget of bodyBudget such bodies.
	MaxBodyBytes int64
	// MaxElements bounds rows·cols of any one wire matrix (default 4M).
	MaxElements int

	// MaxQueueDepth is the runtime ready-task backlog beyond which compute
	// requests are rejected with 429 + Retry-After (default 512 × workers;
	// negative disables).
	MaxQueueDepth int

	// SessionTTL evicts sessions idle longer than this (default 5m);
	// MaxSessions bounds the table (default 1024).
	SessionTTL  time.Duration
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxElements == 0 {
		c.MaxElements = 4 << 20
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 512 * c.Runtime.Workers()
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	return c
}

// bodyBudget is how many bodies of Config.MaxBodyBytes the requests in
// flight may declare between them before the next one is refused.
const bodyBudget = 32

// Server is the HTTP serving layer: construct with New, mount Handler, and
// on shutdown call StartDrain + AwaitIdle before draining the runtime.
type Server struct {
	cfg      Config
	rt       *tiledqr.Runtime
	mux      *http.ServeMux
	sessions *sessionTable
	coal     *coalescer
	stats    serverStats

	bodyBytes atomic.Int64 // request-body bytes reserved by requests in flight

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight int
	idlers   []chan struct{}
}

// New builds a Server on the given runtime.
func New(cfg Config) *Server {
	if cfg.Runtime == nil {
		panic("serve: Config.Runtime is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		rt:       cfg.Runtime,
		mux:      http.NewServeMux(),
		sessions: newSessionTable(cfg.SessionTTL, cfg.MaxSessions),
		coal:     newCoalescer(),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /v1/factor", s.compute(&s.stats.factor.latency, s.handleFactor))
	s.mux.HandleFunc("POST /v1/solve", s.compute(&s.stats.solve.latency, s.handleSolve))
	s.mux.HandleFunc("POST /v1/streams", s.compute(nil, s.handleStreamCreate))
	s.mux.HandleFunc("POST /v1/streams/{id}/rows", s.compute(&s.stats.streamRows.latency, s.handleStreamRows))
	s.mux.HandleFunc("GET /v1/streams/{id}/solve", s.compute(&s.stats.streamSolve.latency, s.handleStreamSolve))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.compute(nil, s.handleStreamDelete))
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain stops admitting compute requests: every subsequent one gets
// 503, while requests already in flight run to completion (AwaitIdle
// observes them). healthz flips to 503 so load balancers stop routing here.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// AwaitIdle blocks until no compute request is in flight, or until ctx is
// done (returning its error). Call after StartDrain for a graceful stop.
func (s *Server) AwaitIdle(ctx context.Context) error {
	s.mu.Lock()
	if s.inflight == 0 {
		s.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	s.idlers = append(s.idlers, ch)
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels the server's base context, under which coalesced batches
// factor and solve and session appends merge: one still in flight fails,
// for every request waiting on it. It does not touch the runtime.
func (s *Server) Close() { s.cancel() }

// InFlight returns the number of compute requests currently being served.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON encodes v completely before the status line goes out, so a
// value encoding/json refuses (a non-finite number) is an error the caller
// can still report and never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	buf := replyPool.Get().(*bytes.Buffer)
	defer putBuffer(replyPool, buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a client that hung up is not the server's failure
	return nil
}

// reply answers 200 with v. The named result matrices are checked first: an
// R or x that overflowed to ±Inf or collapsed to NaN is a failed computation
// and is answered 422 naming the field, as is anything else in v JSON cannot
// carry.
func (s *Server) reply(w http.ResponseWriter, v any, results ...namedMatrix) {
	for _, r := range results {
		for i, x := range r.m.Data {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				s.fail(w, http.StatusUnprocessableEntity,
					"result %q is not finite (value %d is %v): the input overflows or is singular in this precision",
					r.name, i, x)
				return
			}
		}
	}
	if err := writeJSON(w, http.StatusOK, v); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "result cannot be encoded: %v", err)
	}
}

// namedMatrix is a reply field that carries a computed matrix.
type namedMatrix struct {
	name string
	m    *Matrix
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
		s.stats.throttled.Add(1)
	} else if status >= 400 {
		s.stats.failed.Add(1)
	}
	_ = writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)}) // a string always encodes
}

// failErr maps library errors onto HTTP statuses: lifecycle rejections are
// 503 (the server is going away), everything else is the caller's fault or
// a plain failure.
func (s *Server) failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tiledqr.ErrRuntimeDraining), errors.Is(err, tiledqr.ErrRuntimeClosed):
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errNoSession):
		s.fail(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, errSessionLimit):
		s.fail(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.fail(w, 499, "%v", err) // client closed request (nginx convention)
	default:
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// compute wraps a handler with the shared serving concerns: drain gating,
// in-flight accounting, admission, and latency recording (hist may be nil
// for cheap administrative endpoints, which skip the backlog bound).
//
// Admission is two fail-fast 429s with Retry-After, counted as throttled:
// the runtime's ready-task backlog past MaxQueueDepth, and request bodies
// past their budget. A request reserves its declared Content-Length, or
// MaxBodyBytes when it does not declare one, for as long as its handler
// runs, so the requests in flight have declared at most bodyBudget ×
// MaxBodyBytes bytes between them. Nothing is kept per client and nothing
// waits: a stalled body holds only its own bytes.
func (s *Server) compute(hist *Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.fail(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.inflight++
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			s.inflight--
			if s.inflight == 0 {
				for _, ch := range s.idlers {
					close(ch)
				}
				s.idlers = nil
			}
			s.mu.Unlock()
		}()

		if s.cfg.MaxQueueDepth > 0 && hist != nil {
			if st := s.rt.Stats(); st.QueuedTasks > s.cfg.MaxQueueDepth {
				s.fail(w, http.StatusTooManyRequests,
					"runtime backlog %d exceeds bound %d", st.QueuedTasks, s.cfg.MaxQueueDepth)
				return
			}
		}
		n := r.ContentLength // -1 when chunked
		if n < 0 || n > s.cfg.MaxBodyBytes {
			n = s.cfg.MaxBodyBytes // at most this much is ever read
		}
		if n > 0 {
			if s.bodyBytes.Add(n) > bodyBudget*s.cfg.MaxBodyBytes {
				s.bodyBytes.Add(-n)
				s.fail(w, http.StatusTooManyRequests,
					"request bodies in flight exceed %d bytes", bodyBudget*s.cfg.MaxBodyBytes)
				return
			}
			defer s.bodyBytes.Add(-n)
		}

		s.stats.requests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		start := time.Now()
		h(w, r)
		if hist != nil {
			hist.Observe(time.Since(start))
		}
	}
}

// wireOptions is the wire form of the tunable factorization options.
type wireOptions struct {
	Algorithm   string `json:"algorithm,omitempty"`
	Kernels     string `json:"kernels,omitempty"`
	TileSize    int    `json:"tile_size,omitempty"`
	InnerBlock  int    `json:"inner_block,omitempty"`
	CheckHealth bool   `json:"check_health,omitempty"`
}

// options lowers the wire options onto the server's runtime.
func (w *wireOptions) options(rt *tiledqr.Runtime) (tiledqr.Options, error) {
	opt := tiledqr.Options{Runtime: rt}
	if w == nil {
		return opt, nil
	}
	var err error
	if w.Algorithm != "" {
		if opt.Algorithm, err = tiledqr.ParseAlgorithm(w.Algorithm); err != nil {
			return opt, err
		}
	}
	switch opt.Algorithm {
	case tiledqr.PlasmaTree, tiledqr.HadriTree, tiledqr.Grasap:
		return opt, fmt.Errorf("algorithm %v takes a parameter (BS, GrasapK) the wire options do not carry", opt.Algorithm)
	}
	if w.Kernels != "" {
		if opt.Kernels, err = tiledqr.ParseKernels(w.Kernels); err != nil {
			return opt, err
		}
	}
	if w.TileSize < 0 || w.InnerBlock < 0 {
		return opt, fmt.Errorf("tile_size and inner_block must be ≥ 0")
	}
	opt.TileSize = w.TileSize
	opt.InnerBlock = w.InnerBlock
	opt.CheckHealth = w.CheckHealth
	return opt, nil
}

// ---- one-shot endpoints ----

type factorRequest struct {
	Precision string       `json:"precision,omitempty"`
	Matrix    *Matrix      `json:"matrix"`
	Options   *wireOptions `json:"options,omitempty"`
}

func (q *factorRequest) fields() []field {
	return []field{{key: "precision", val: &q.Precision}, {key: "matrix", mat: &q.Matrix}, {key: "options", val: &q.Options}}
}

type factorReply struct {
	R         *Matrix `json:"r"`
	TaskCount int     `json:"task_count"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request) {
	var req factorRequest
	if !s.readBody(w, r, &s.stats.factor.decode, &req) {
		return
	}
	o, opt, err := s.prep(req.Precision, req.Options, req.Matrix)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, tasks, err := o.Factor(r.Context(), req.Matrix, opt, nil, &s.stats)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, factorReply{
		R: res[0], TaskCount: tasks,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, namedMatrix{"r", res[0]})
}

type solveRequest struct {
	Precision string       `json:"precision,omitempty"`
	Matrix    *Matrix      `json:"matrix"`
	RHS       *Matrix      `json:"rhs"`
	Options   *wireOptions `json:"options,omitempty"`
}

func (q *solveRequest) fields() []field {
	return []field{{key: "precision", val: &q.Precision}, {key: "matrix", mat: &q.Matrix},
		{key: "rhs", mat: &q.RHS}, {key: "options", val: &q.Options}}
}

type solveReply struct {
	X         *Matrix `json:"x"`
	Coalesced int     `json:"coalesced"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !s.readBody(w, r, &s.stats.solve.decode, &req) {
		return
	}
	o, opt, err := s.prep(req.Precision, req.Options, req.Matrix)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := o.CheckMatrix(req.RHS, s.cfg.MaxElements); err != nil {
		s.fail(w, http.StatusBadRequest, "rhs: %v", err)
		return
	}
	if err := checkLS(req.Matrix, req.RHS); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	x, size, err := s.coal.solve(r.Context(), s.baseCtx, o, req.Matrix, req.RHS, opt, &s.stats)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, solveReply{
		X: x, Coalesced: size,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, namedMatrix{"x", x})
}

// checkLS is the shape contract of a least-squares solve, checked on each
// request by itself before it can join anyone's batch.
func checkLS(a, rhs *Matrix) error {
	if rhs.Rows != a.Rows || a.Rows < a.Cols {
		return fmt.Errorf("solve wants matrix rows ≥ cols and rhs rows == matrix rows (matrix %d×%d, rhs %d×%d)",
			a.Rows, a.Cols, rhs.Rows, rhs.Cols)
	}
	return nil
}

// prep resolves precision and options and validates the primary matrix.
func (s *Server) prep(prec string, wo *wireOptions, m *Matrix) (ops, tiledqr.Options, error) {
	o, err := opsFor(prec)
	if err != nil {
		return nil, tiledqr.Options{}, err
	}
	opt, err := wo.options(s.rt)
	if err != nil {
		return nil, tiledqr.Options{}, err
	}
	if err := o.CheckMatrix(m, s.cfg.MaxElements); err != nil {
		return nil, tiledqr.Options{}, err
	}
	return o, opt, nil
}

// ---- session endpoints ----

type streamCreateRequest struct {
	Precision string       `json:"precision,omitempty"`
	Cols      int          `json:"cols,omitempty"`
	Options   *wireOptions `json:"options,omitempty"`
	// Window and Forget configure retention (tiledqr.Options
	// WindowRows/Forget): a positive window keeps the most recent Window
	// rows (older ones are downdated away automatically), and Forget
	// λ ∈ (0, 1] decays past rows' weight per append. No endpoint removes
	// rows, so retaining them all for removal (RetainAll) is refused.
	Window int     `json:"window,omitempty"`
	Forget float64 `json:"forget,omitempty"`
}

func (q *streamCreateRequest) fields() []field {
	return []field{{key: "precision", val: &q.Precision}, {key: "cols", val: &q.Cols},
		{key: "options", val: &q.Options}, {key: "window", val: &q.Window}, {key: "forget", val: &q.Forget}}
}

type streamCreateReply struct {
	ID string `json:"id"`
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req streamCreateRequest
	if !s.readBody(w, r, nil, &req) {
		return
	}
	o, err := opsFor(req.Precision)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	opt, err := req.Options.options(s.rt)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Cols < 1 || req.Window < 0 {
		s.fail(w, http.StatusBadRequest, "a stream needs cols ≥ 1 and window ≥ 0 (have cols %d, window %d)", req.Cols, req.Window)
		return
	}
	opt.WindowRows, opt.Forget = req.Window, req.Forget
	st, err := o.NewStream(req.Cols, opt)
	if err != nil {
		s.failErr(w, err)
		return
	}
	sess := &session{prec: o.Precision(), stream: st}
	if err := s.sessions.add(sess); err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, streamCreateReply{ID: sess.id})
}

type streamRowsRequest struct {
	Batch *Matrix `json:"batch"`
	RHS   *Matrix `json:"rhs,omitempty"`
}

func (q *streamRowsRequest) fields() []field {
	return []field{{key: "batch", mat: &q.Batch}, {key: "rhs", mat: &q.RHS}}
}

type streamRowsReply struct {
	Rows      int64   `json:"rows"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// getSession fetches the session for a /v1/streams/{id}/... request.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) *session {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		s.failErr(w, err)
		return nil
	}
	return sess
}

func (s *Server) handleStreamRows(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	var req streamRowsRequest
	if !s.readBody(w, r, &s.stats.streamRows.decode, &req) {
		return
	}
	o, _ := opsFor(sess.prec)
	if err := o.CheckMatrix(req.Batch, s.cfg.MaxElements); err != nil {
		s.fail(w, http.StatusBadRequest, "batch: %v", err)
		return
	}
	if req.RHS != nil {
		if err := o.CheckMatrix(req.RHS, s.cfg.MaxElements); err != nil {
			s.fail(w, http.StatusBadRequest, "rhs: %v", err)
			return
		}
	}
	start := time.Now()
	sess.mu.Lock()
	// A merge stopped midway poisons the stream for every client of the
	// session, so the append runs under the server's context: a client
	// that hangs up loses only its reply.
	err := sess.stream.Append(s.baseCtx, req.Batch, req.RHS)
	rows := sess.stream.Rows()
	sess.mu.Unlock()
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, streamRowsReply{
		Rows:      rows,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

type streamSolveReply struct {
	X         *Matrix `json:"x"`
	Residual  float64 `json:"residual"`
	Rows      int64   `json:"rows"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleStreamSolve(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	start := time.Now()
	sess.mu.Lock()
	x, resid, err := sess.stream.Solve()
	rows := sess.stream.Rows()
	sess.mu.Unlock()
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, streamSolveReply{
		X: x, Residual: resid, Rows: rows,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, namedMatrix{"x", x})
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.remove(r.PathValue("id")); err != nil {
		s.failErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- health and stats ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.reply(w, map[string]string{"status": "ok"})
}

// Statsz is the wire form of /statsz.
type Statsz struct {
	Runtime struct {
		Workers      int  `json:"workers"`
		QueuedTasks  int  `json:"queued_tasks"`
		InFlightJobs int  `json:"inflight_jobs"`
		Draining     bool `json:"draining"`
	} `json:"runtime"`
	Server struct {
		InFlightRequests  int    `json:"inflight_requests"`
		Sessions          int    `json:"sessions"`
		Requests          uint64 `json:"requests"`
		Failed            uint64 `json:"failed"`
		Throttled         uint64 `json:"throttled"`
		Factorizations    uint64 `json:"factorizations"`
		CoalescedRequests uint64 `json:"coalesced_requests"`
		SolveBatches      uint64 `json:"solve_batches"`
		Draining          bool   `json:"draining"`
	} `json:"server"`
	Endpoints map[string]endpointStats `json:"endpoints"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var out Statsz
	rs := s.rt.Stats()
	out.Runtime.Workers = rs.Workers
	out.Runtime.QueuedTasks = rs.QueuedTasks
	out.Runtime.InFlightJobs = rs.InFlightJobs
	out.Runtime.Draining = rs.Draining
	out.Server.InFlightRequests = s.InFlight()
	out.Server.Sessions = s.sessions.count()
	out.Server.Requests = s.stats.requests.Load()
	out.Server.Failed = s.stats.failed.Load()
	out.Server.Throttled = s.stats.throttled.Load()
	out.Server.Factorizations = s.stats.factorizations.Load()
	out.Server.CoalescedRequests = s.stats.coalesced.Load()
	out.Server.SolveBatches = s.stats.batches.Load()
	out.Server.Draining = s.Draining()
	out.Endpoints = map[string]endpointStats{
		"factor":       s.stats.factor.wire(),
		"solve":        s.stats.solve.wire(),
		"stream_rows":  s.stats.streamRows.wire(),
		"stream_solve": s.stats.streamSolve.wire(),
	}
	s.reply(w, out)
}
