package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"tiledqr/internal/tile"
)

// toyEnv is a run at toy size with its files under the test's own
// directory; the tuner's calibration goes there too, not to the user's
// cache.
func toyEnv(t *testing.T) env {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TILEDQR_CALIBRATION", filepath.Join(tmp, "calibration.json"))
	return env{toy: true, tmp: tmp}
}

// TestBenchmarkFileMatchesHarness: BENCHMARK.json and the harness name the
// same workloads and the same metrics with the same unit and direction.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ws := workloads(env{})
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, bf.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q is not a valid name", w.name)
		}
		if why := bf.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(why))
		}
	}
	same := func(kind string, file []benchMetric, specs []metricSpec) {
		t.Helper()
		if len(file) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(file), len(specs))
		}
		seen := map[string]bool{}
		for i := 0; i < min(len(file), len(specs)); i++ {
			f, s := file[i], specs[i]
			if f.Name != s.name || f.Unit != s.unit || f.Better != s.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, f, s)
			}
			if !name.MatchString(s.name) || seen[s.name] {
				t.Errorf("%s metric name %q is invalid or used twice", kind, s.name)
			}
			seen[s.name] = true
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	var setupBound, widest float64
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < widest {
		t.Errorf("setup_s must be an end-to-end metric with the largest bound (has %g, widest is %g)", setupBound, widest)
	}
	for _, m := range bf.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestEveryMetricEmitted runs both passes over every workload at toy size:
// each pass must be correct and emit exactly the declared metrics, the
// end-to-end ones never 0, and the traced pass must leave a trace file that
// parses.
func TestEveryMetricEmitted(t *testing.T) {
	e := toyEnv(t)
	out := t.TempDir()
	for _, w := range workloads(e) {
		for _, trace := range []bool{false, true} {
			res, _ := runPass(w, 1, 0.2, trace, e, out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.name]
				if !ok || v.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit (%+v)", w.name, trace, s.name, v)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, s.name, v.Value)
				}
			}
		}
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Dur  float64
			}
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not parse or is empty: %v", w.name, err)
		}
	}
}

// TestSeparation: the panel workload runs no update kernel at all, and the
// kernel shares of the tall workload add up to everything.
func TestSeparation(t *testing.T) {
	e := toyEnv(t)
	ws := workloads(e)
	_, panel := runPass(ws[1], 1, 0.2, true, e, t.TempDir())
	for _, k := range []string{"unmqr", "tsmqr", "ttmqr"} {
		if v := panel["kernel.share."+k].Value; v != 0 {
			t.Errorf("tsqr_panel: kernel.share.%s = %g, want exactly 0", k, v)
		}
	}
	_, tall := runPass(ws[0], 1, 0.2, true, e, t.TempDir())
	var sum float64
	for _, k := range kinds {
		sum += tall["kernel.share."+k].Value
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("tall_ls: kernel shares sum to %g, want 1", sum)
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // ten beyond
		{99, 0.90, 90, false},   // nine beyond
		{200, 0.95, 190, true},  // ten beyond
		{199, 0.95, 190, false}, // nine beyond
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		p, ok := percentile(series(c.n), c.q)
		if p != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, p, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples support no percentile")
	}
}

func TestSegmentRates(t *testing.T) {
	// Ten operations of one second back to back in a ten-second window
	// cut into twenty: every segment sees one operation per second, also
	// the ones an operation straddles.
	var s []sample
	for i := 0; i < 10; i++ {
		at := time.Duration(i)*time.Second + 500*time.Millisecond
		s = append(s, sample{start: at, end: at + time.Second, rows: 4})
	}
	ops, rows, _ := segmentRates(s, 10*time.Second)
	for i := 1; i < segments; i++ { // segment 0, the first half second, is idle
		if d := ops[i] - 1; d < -1e-9 || d > 1e-9 || rows[i] != 4*ops[i] {
			t.Errorf("segment %d: %g ops/s, %g rows/s; want 1 and 4", i, ops[i], rows[i])
		}
	}
	if ops[0] != 0 {
		t.Errorf("segment 0: %g ops/s, want 0", ops[0])
	}
	// The end-to-end figures are read off the least disturbed segments: the
	// third fastest rate and the second lowest latency of twenty.
	v := make([]float64, segments)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if r, l := undisturbedRate(v), undisturbedLatency(v); r != 18 || l != 2 {
		t.Errorf("undisturbed rate and latency of 1..20 are %g and %g, want 18 and 2", r, l)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := newTracer()
	op := tr.add(&span{tr: tr, parent: -1, name: "op", start: 0, end: 100 * ms})
	f := tr.add(&span{tr: tr, parent: op.id, name: "engine.factor", start: 10 * ms, end: 80 * ms})
	// Two workers' tasks overlap from 30 to 40; one task runs past its parent.
	f.childAt("geqrt", 100, 20*ms, 40*ms)
	f.childAt("ttqrt", 101, 30*ms, 60*ms)
	f.childAt("ttqrt", 100, 70*ms, 90*ms)
	tr.add(&span{tr: tr, parent: op.id, name: "engine.solve", start: 80 * ms, end: 95 * ms})
	self := selfTimes(tr.spans)
	for name, want := range map[string]time.Duration{
		"op":            15 * ms, // 100 − (70 + 15)
		"engine.factor": 20 * ms, // 70 − (union 20..60 = 40, and 70..80 = 10)
		"engine.solve":  15 * ms,
		"geqrt":         20 * ms,
		"ttqrt":         50 * ms,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

// TestVerifiersRejectCorruption: every workload's verifier passes the
// results the library produced and fails them once one entry is changed.
func TestVerifiersRejectCorruption(t *testing.T) {
	e := toyEnv(t)
	for _, w := range workloads(e) {
		in, err := setUp(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out := passOutcome{attempted: 7}
		if acc := checkAccuracy(w, in, &out); out.err != nil || out.failed != 0 {
			t.Errorf("%s: honest result rejected (accuracy %g eps): %v", w.name, acc, out.err)
		}
		corrupt(t, in)
		if checkAccuracy(w, in, &out); out.err == nil || out.failed != out.attempted {
			t.Errorf("%s: corrupted result accepted (err %v, failed %d of %d)", w.name, out.err, out.failed, out.attempted)
		}
		in.close()
	}
}

// corrupt changes one entry of the last result the instance holds.
func corrupt(t *testing.T, in instance) {
	t.Helper()
	switch in := in.(type) {
	case *factorInst[float64]:
		r := in.last[0].r()
		r.Data[1] += 1e-6
		in.last[0].r = func() *tile.Dense[float64] { return r }
	case *factorInst[complex128]:
		in.last[0].x.Data[0] += 1e-6
	case *streamInst:
		// One more batch than the harness knows of.
		if err := in.last.s.AppendRHS(in.batches[0], in.rhs[0]); err != nil {
			t.Fatal(err)
		}
	case *serveInst:
		in.solve.x.Data[0] += 1e-6
	case *distInst:
		in.last.X.Data[0] += 1e-6
	default:
		t.Fatalf("no corruption for %T", in)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b   metric
		better string
		floor  float64
		want   string
	}{
		{metric{Value: 100}, metric{Value: 110}, "lower", 0, "same"},
		{metric{Value: 100}, metric{Value: 130}, "lower", 0, "worse"},
		{metric{Value: 100}, metric{Value: 130}, "higher", 0, "better"},
		{metric{Value: 100, Spread: 0.3}, metric{Value: 130}, "lower", 0, "unresolved"},
		// 43 % apart, but by less than a tenth of a second.
		{metric{Value: 0.076, Spread: 0.3}, metric{Value: 0.108}, "lower", 0.2, "same"},
		{metric{Value: 0.5}, metric{Value: 0.8}, "lower", 0.2, "worse"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.25, c.floor); got != c.want {
			t.Errorf("verdict(%g, %g, %s, floor %g) = %s, want %s", c.a.Value, c.b.Value, c.better, c.floor, got, c.want)
		}
	}
}
