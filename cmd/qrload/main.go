// Command qrload drives load at a running qrserve and reports latency
// percentiles and sustained rows/sec — the harness that turns "serves heavy
// traffic" into a measured number. Scenarios are TOML files describing a
// duration, a thread count, pacing/ramp-up, and a weighted endpoint mix
// (one-shot factor, one-shot least-squares solve, streaming append); matrix
// data is generated on the fly from per-thread deterministic generators.
//
//	qrload -scenario testdata/scenarios/smoke.toml
//	qrload -scenario heavy.toml -url http://10.0.0.5:8787 -json load-report.json
//
// Two JSON reports gate against each other with `qrperf -compare old.json
// new.json`, which compares every *_per_sec value they hold: the "serve"
// pair and each endpoint's rows_per_sec.
// qrload exits 1 when any request fails outright (429 backpressure counts
// as throttled, not failed) or when nothing succeeded.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"tiledqr/internal/serve"
)

var (
	flagScenario = flag.String("scenario", "", "scenario TOML file (required)")
	flagURL      = flag.String("url", "", "override the scenario's base_url")
	flagJSON     = flag.String("json", "", "write a JSON report here (qrperf -compare compatible)")
)

func main() {
	flag.Parse()
	if *flagScenario == "" {
		fmt.Fprintln(os.Stderr, "usage: qrload -scenario file.toml [-url http://host:port] [-json report.json]")
		os.Exit(2)
	}
	sc, err := loadScenario(*flagScenario)
	if err != nil {
		die(err)
	}
	if *flagURL != "" {
		sc.BaseURL = *flagURL
	}
	rep, err := run(sc)
	if err != nil {
		die(err)
	}
	rep.print(sc)
	if *flagJSON != "" {
		if err := rep.export(sc, *flagJSON); err != nil {
			die(err)
		}
	}
	if rep.failed > 0 || rep.ok == 0 {
		fmt.Fprintf(os.Stderr, "qrload: FAILED — %d failed requests, %d ok\n", rep.failed, rep.ok)
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "qrload:", err)
	os.Exit(1)
}

// kindAgg accumulates one endpoint kind's results inside one worker (no
// locking: workers merge at the end).
type kindAgg struct {
	ok        int64
	failed    int64
	throttled int64
	rows      int64
	lat       []time.Duration
}

// report is the merged run outcome.
type report struct {
	elapsed   time.Duration
	ok        int64
	failed    int64
	throttled int64
	rows      int64
	lat       []time.Duration
	kinds     map[string]*kindAgg
}

// run executes the scenario and merges the per-worker results.
func run(sc *Scenario) (*report, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        sc.Threads * 2,
		MaxIdleConnsPerHost: sc.Threads * 2,
	}}
	// Fail fast when the server is not there rather than recording a
	// thread-count's worth of connection errors.
	if err := waitHealthy(client, sc.BaseURL, 5*time.Second); err != nil {
		return nil, err
	}
	// Shared per-endpoint design matrices (see Endpoint.VaryMatrix), encoded
	// here, once: every request that sends one sends the same bytes.
	shared := make([]json.RawMessage, len(sc.Endpoints))
	for i, ep := range sc.Endpoints {
		if ep.Kind == "solve" && !ep.VaryMatrix {
			m := randMatrix(rand.New(rand.NewSource(int64(1000+i))), ep.Rows, ep.Cols, isComplex(ep.Precision))
			shared[i] = m.AppendJSON(nil)
		}
	}
	deadline := time.Now().Add(sc.RampUp + sc.Duration)
	results := make([]*report, sc.Threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < sc.Threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if sc.RampUp > 0 && sc.Threads > 1 {
				time.Sleep(sc.RampUp * time.Duration(id) / time.Duration(sc.Threads))
			}
			results[id] = worker(client, sc, shared, id, deadline)
		}(t)
	}
	wg.Wait()
	merged := &report{elapsed: time.Since(start), kinds: map[string]*kindAgg{}}
	for _, r := range results {
		merged.ok += r.ok
		merged.failed += r.failed
		merged.throttled += r.throttled
		merged.rows += r.rows
		merged.lat = append(merged.lat, r.lat...)
		for k, a := range r.kinds {
			m := merged.kinds[k]
			if m == nil {
				m = &kindAgg{}
				merged.kinds[k] = m
			}
			m.ok += a.ok
			m.failed += a.failed
			m.throttled += a.throttled
			m.rows += a.rows
			m.lat = append(m.lat, a.lat...)
		}
	}
	sort.Slice(merged.lat, func(i, j int) bool { return merged.lat[i] < merged.lat[j] })
	return merged, nil
}

// waitHealthy polls /healthz until the server answers.
func waitHealthy(client *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not healthy: %v", base, err)
			}
			return fmt.Errorf("server at %s not healthy", base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// worker is one load thread: pick an endpoint by weight, fire, record,
// pace, until the deadline.
func worker(client *http.Client, sc *Scenario, shared []json.RawMessage, id int, deadline time.Time) *report {
	rng := rand.New(rand.NewSource(int64(7919*id + 13)))
	send := &sender{client: client, sc: sc, rng: rng}
	rep := &report{kinds: map[string]*kindAgg{}}
	total := 0
	for _, ep := range sc.Endpoints {
		total += ep.Weight
	}
	streams := make(map[int]string) // endpoint index -> session id
	for time.Now().Before(deadline) {
		ei := pickEndpoint(rng, sc.Endpoints, total)
		ep := &sc.Endpoints[ei]
		agg := rep.kinds[ep.Kind]
		if agg == nil {
			agg = &kindAgg{}
			rep.kinds[ep.Kind] = agg
		}
		var (
			status int
			rows   int64
			err    error
		)
		t0 := time.Now()
		switch ep.Kind {
		case "factor":
			status, err = send.factor(ep)
			rows = int64(ep.Rows)
		case "solve":
			status, err = send.solve(ep, shared[ei])
			rows = int64(ep.Rows)
		case "stream":
			status, err = send.stream(ep, streams, ei)
			rows = int64(ep.Rows)
		}
		lat := time.Since(t0)
		switch {
		case err != nil || status >= 500 || (status >= 400 && status != http.StatusTooManyRequests):
			agg.failed++
			rep.failed++
		case status == http.StatusTooManyRequests:
			agg.throttled++
			rep.throttled++
			time.Sleep(retryAfter())
		default:
			agg.ok++
			rep.ok++
			agg.rows += rows
			rep.rows += rows
			agg.lat = append(agg.lat, lat)
			rep.lat = append(rep.lat, lat)
		}
		if sc.Pacing > 0 {
			time.Sleep(sc.Pacing)
		}
	}
	// Finalize streams: one solve where the maths permits, then delete.
	for ei, id := range streams {
		ep := &sc.Endpoints[ei]
		if ep.RHS > 0 {
			resp, err := client.Get(sc.BaseURL + "/v1/streams/" + id + "/solve")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		req, _ := http.NewRequest(http.MethodDelete, sc.BaseURL+"/v1/streams/"+id, nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return rep
}

// retryAfter is how long a throttled worker backs off: a bounded slice of
// the server's suggested second.
func retryAfter() time.Duration { return 100 * time.Millisecond }

func pickEndpoint(rng *rand.Rand, eps []Endpoint, total int) int {
	n := rng.Intn(total)
	for i := range eps {
		n -= eps[i].Weight
		if n < 0 {
			return i
		}
	}
	return len(eps) - 1
}

func isComplex(prec string) bool { return prec == "z" || prec == "c" }

// randMatrix builds a wire matrix with standard-normal entries.
func randMatrix(rng *rand.Rand, rows, cols int, complexData bool) *serve.Matrix {
	n := rows * cols
	if complexData {
		n *= 2
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return &serve.Matrix{Rows: rows, Cols: cols, Data: data}
}

// sender is one worker's request builder. Bodies are assembled by hand —
// matrices through serve.Matrix.AppendJSON, the small values through
// encoding/json — because a load generator that marshals a map of fresh
// matrices by reflection for every request measures its own encoder as much
// as the server.
type sender struct {
	client *http.Client
	sc     *Scenario
	rng    *rand.Rand
	body   []byte
}

// key opens the next member of the body under construction.
func (s *sender) key(k string) {
	open := byte(',')
	if len(s.body) == 0 {
		open = '{'
	}
	s.body = append(append(append(s.body, open, '"'), k...), '"', ':')
}

func (s *sender) raw(k string, v []byte) {
	s.key(k)
	s.body = append(s.body, v...)
}

// value adds a small member (a precision tag, the options) via encoding/json.
func (s *sender) value(k string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings, ints and flat structs of them always encode
	}
	s.raw(k, raw)
}

// random adds a freshly generated rows×cols matrix in ep's precision.
func (s *sender) random(k string, ep *Endpoint, rows, cols int) {
	s.key(k)
	s.body = randMatrix(s.rng, rows, cols, isComplex(ep.Precision)).AppendJSON(s.body)
}

// post closes the body under construction, sends it and returns the HTTP
// status; a 200's reply is decoded into out unless out is nil. The next body
// starts in a buffer of its own, sized like this one: after an early answer
// (a 429, a 503) the transport may still be sending from the old one.
func (s *sender) post(url string, out any) (int, error) {
	raw := append(s.body, '}')
	s.body = make([]byte, 0, len(raw))
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.sc.Tenant != "" {
		req.Header.Set("X-Tenant", s.sc.Tenant)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func wireOptions(ep *Endpoint) *serve.WireOptions {
	if ep.TileSize == 0 && ep.InnerBlock == 0 {
		return nil
	}
	return &serve.WireOptions{TileSize: ep.TileSize, InnerBlock: ep.InnerBlock}
}

func (s *sender) factor(ep *Endpoint) (int, error) {
	s.value("precision", ep.Precision)
	s.random("matrix", ep, ep.Rows, ep.Cols)
	s.value("options", wireOptions(ep))
	return s.post(s.sc.BaseURL+"/v1/factor", nil)
}

// solve sends the endpoint's shared design matrix, encoded once per run, or
// a fresh one when the scenario varies it (shared is nil then).
func (s *sender) solve(ep *Endpoint, shared json.RawMessage) (int, error) {
	s.value("precision", ep.Precision)
	if shared != nil {
		s.raw("matrix", shared)
	} else {
		s.random("matrix", ep, ep.Rows, ep.Cols)
	}
	s.random("rhs", ep, ep.Rows, ep.RHS)
	s.value("options", wireOptions(ep))
	return s.post(s.sc.BaseURL+"/v1/solve", nil)
}

// stream appends one batch to the worker's session for this endpoint,
// creating the session on first use (or after an eviction 404).
func (s *sender) stream(ep *Endpoint, streams map[int]string, ei int) (int, error) {
	id, ok := streams[ei]
	if !ok {
		var created struct {
			ID string `json:"id"`
		}
		s.value("precision", ep.Precision)
		s.value("cols", ep.Cols)
		s.value("options", wireOptions(ep))
		if status, err := s.post(s.sc.BaseURL+"/v1/streams", &created); err != nil || status != http.StatusOK {
			return status, err
		}
		id = created.ID
		streams[ei] = id
	}
	s.random("batch", ep, ep.Rows, ep.Cols)
	if ep.RHS > 0 {
		s.random("rhs", ep, ep.Rows, ep.RHS)
	}
	status, err := s.post(s.sc.BaseURL+"/v1/streams/"+id+"/rows", nil)
	if status == http.StatusNotFound {
		// The session aged out of the table; rebuild next iteration.
		delete(streams, ei)
	}
	return status, err
}

// quantile returns the q-quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *report) print(sc *Scenario) {
	fmt.Printf("qrload: %s — %d threads, %v (+%v ramp-up), pacing %v\n",
		*flagScenario, sc.Threads, sc.Duration, sc.RampUp, sc.Pacing)
	fmt.Printf("  requests: %d ok, %d failed, %d throttled (429)\n", r.ok, r.failed, r.throttled)
	if len(r.lat) > 0 {
		fmt.Printf("  latency:  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
			ms(quantile(r.lat, 0.50)), ms(quantile(r.lat, 0.95)),
			ms(quantile(r.lat, 0.99)), ms(r.lat[len(r.lat)-1]))
	}
	sec := r.elapsed.Seconds()
	fmt.Printf("  throughput: %.1f req/sec, %.0f rows/sec over %.2fs\n",
		float64(r.ok)/sec, float64(r.rows)/sec, sec)
	kinds := make([]string, 0, len(r.kinds))
	for k := range r.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		a := r.kinds[k]
		sort.Slice(a.lat, func(i, j int) bool { return a.lat[i] < a.lat[j] })
		fmt.Printf("  %-8s %d ok, %d failed, %d throttled, p99 %.2fms, %.0f rows/sec\n",
			k+":", a.ok, a.failed, a.throttled, ms(quantile(a.lat, 0.99)), float64(a.rows)/sec)
	}
}

// exportEndpoint and the export* types mirror the text report as JSON.
// qrperf -compare gates on the *_per_sec fields, wherever they sit.
type exportEndpoint struct {
	// Count is the total requests sent to the endpoint (ok + failed +
	// throttled) — the denominator the percentile below is drawn from.
	// Earlier reports omitted it, so a kind whose requests all failed was
	// indistinguishable from one that was never exercised.
	Count      int64   `json:"count"`
	OK         int64   `json:"ok"`
	Failed     int64   `json:"failed"`
	Throttled  int64   `json:"throttled"`
	P99MS      float64 `json:"p99_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

type exportFile struct {
	Serve struct {
		RowsPerSec     float64 `json:"rows_per_sec"`
		RequestsPerSec float64 `json:"requests_per_sec"`
	} `json:"serve"`
	Load struct {
		Scenario    string                    `json:"scenario"`
		Threads     int                       `json:"threads"`
		DurationSec float64                   `json:"duration_sec"`
		Requests    int64                     `json:"requests"`
		Failed      int64                     `json:"failed"`
		Throttled   int64                     `json:"throttled"`
		P50MS       float64                   `json:"p50_ms"`
		P95MS       float64                   `json:"p95_ms"`
		P99MS       float64                   `json:"p99_ms"`
		Endpoints   map[string]exportEndpoint `json:"endpoints"`
	} `json:"load"`
}

func (r *report) export(sc *Scenario, path string) error {
	var out exportFile
	sec := r.elapsed.Seconds()
	out.Serve.RowsPerSec = float64(r.rows) / sec
	out.Serve.RequestsPerSec = float64(r.ok) / sec
	out.Load.Scenario = *flagScenario
	out.Load.Threads = sc.Threads
	out.Load.DurationSec = sec
	out.Load.Requests = r.ok
	out.Load.Failed = r.failed
	out.Load.Throttled = r.throttled
	out.Load.P50MS = ms(quantile(r.lat, 0.50))
	out.Load.P95MS = ms(quantile(r.lat, 0.95))
	out.Load.P99MS = ms(quantile(r.lat, 0.99))
	out.Load.Endpoints = map[string]exportEndpoint{}
	for k, a := range r.kinds {
		out.Load.Endpoints[k] = exportEndpoint{
			Count: a.ok + a.failed + a.throttled,
			OK:    a.ok, Failed: a.failed, Throttled: a.throttled,
			P99MS:      ms(quantile(a.lat, 0.99)),
			RowsPerSec: float64(a.rows) / sec,
		}
	}
	raw, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
