// Command bench is the repository's benchmark: seven named workloads, the
// end-to-end metrics a user of the library, the server or the distributed
// tier would see (measured with tracing off), and a traced pass that
// attributes each workload's time to the internal packages by timing calls
// into their exported functions from here. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./bench                                   every workload, both passes, table + bench/out/results.json
//	go run ./bench -only tall_ls                     one workload
//	go run ./bench -compare a.json b.json            two result files, row by row
//	go run ./bench -selfcheck                        the whole benchmark twice, must agree within the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one pass, one JSON result line (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// result is the last line of a single pass, in the driver's format.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passOutcome is what one pass over one workload found.
type passOutcome struct {
	metrics   metrics
	attempted int
	failed    int
	err       error // why the pass is not correct, nil when it is
}

// env is where a run happens: at full or toy size (toy sizes keep every
// code path and are what bench_test.go runs), its scratch directory, and
// the qrserve binary built for it.
type env struct {
	toy            bool
	tmp, serverBin string
}

// workloads lists the seven workloads.
func workloads(e env) []*workload {
	toy := e.toy
	pick := func(full, small shape) shape {
		if toy {
			return small
		}
		return full
	}
	tall := pick(shape{"d", 2560, 256, 64, 16}, shape{"d", 96, 32, 16, 4})
	panel := pick(shape{"d", 16384, 128, 128, 32}, shape{"d", 256, 16, 16, 4})
	tallZ := pick(shape{"z", 2560, 128, 64, 16}, shape{"z", 96, 32, 16, 4})
	fleet := pick(shape{"d", 256, 128, 32, 8}, shape{"d", 64, 32, 16, 4})
	st := streamShape{256, 256, 64, 16, 8}
	sv := serveShape{1024, 128, 512, 128, 128, 64}
	ds := distShape{4096, 128, 64, 16, 2}
	if toy {
		st = streamShape{32, 32, 16, 4, 3}
		sv = serveShape{64, 16, 48, 16, 16, 8}
		ds = distShape{128, 16, 16, 4, 2}
	}
	return []*workload{
		{name: "tall_ls", callers: 1, ref: tall, ceiling: 2000,
			setup: func(seed int64) (instance, error) { return newFactorInst(tall, pubD, 1, false, 3, seed), nil }},
		{name: "tsqr_panel", callers: 1, ref: panel, ceiling: 2000,
			setup: func(seed int64) (instance, error) { return newFactorInst(panel, pubD, 1, true, 3, seed), nil }},
		{name: "tall_ls_c128", callers: 1, ref: tallZ, ceiling: 2000,
			setup: func(seed int64) (instance, error) { return newFactorInst(tallZ, pubZ, 1, false, 3, seed), nil }},
		{name: "small_fleet", callers: 2, ref: fleet, ceiling: 2000,
			setup: func(seed int64) (instance, error) { return newFactorInst(fleet, pubD, 2, false, 100, seed), nil }},
		{name: "stream_window", callers: 1, ref: shape{"d", st.batch, st.n, st.nb, st.ib}, ceiling: 1e5,
			setup: func(seed int64) (instance, error) { return newStreamInst(st, seed) }},
		// The server factors with the library defaults (nb=128, ib=32).
		{name: "serve_mix", callers: 2, ref: shape{"d", sv.solveM, sv.solveN, 128, 32}, ceiling: 2000,
			setup: func(seed int64) (instance, error) {
				srv, err := startServer(e)
				if err != nil {
					return nil, err
				}
				in, err := newServeInst(sv, srv, 2, seed)
				if err != nil {
					srv.stop()
				}
				return in, err
			}},
		// The ledger shape is one worker's shard.
		{name: "dist_round", callers: 1, ref: shape{"d", ds.m / ds.shards, ds.n, ds.nb, ds.ib}, ceiling: 2000,
			setup: func(seed int64) (instance, error) { return newDistInst(ds, seed), nil }},
	}
}

// fixedSizes are the sizes of the workload-independent probes.
func fixedSizes(e env, seconds float64) probeSizes {
	toy, ws := e.toy, workloads(e)
	sz := probeSizes{nb: 128, ib: 32, fleet: ws[3].ref, tuned: ws[0].ref,
		stream: streamShape{256, 256, 64, 16, 8}, serve: serveShape{1024, 128, 512, 128, 128, 64}, distN: 128,
		budget: dur(seconds / 20), calFile: filepath.Join(e.tmp, "calibration-probe.json")}
	if toy {
		sz.nb, sz.ib, sz.distN = 32, 8, 16
		sz.stream, sz.serve = streamShape{32, 32, 16, 4, 3}, serveShape{64, 16, 48, 16, 16, 8}
	}
	return sz
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// A timed pass sets the workload up again and again — at least minSetups
// times, and up to maxSetups while that takes less than a second in all —
// and setup_s is the median: one set-up is a tenth of a second for most
// workloads, and a single reading of that is mostly process start-up noise.
const (
	minSetups = 5
	maxSetups = 9
)

// setUp builds the instance and runs its warm-up.
func setUp(w *workload, seed int64) (instance, error) {
	in, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	if err := warmLoop(w, in, in.warmOps(), false); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// timedPass measures the end-to-end metrics with tracing off.
func timedPass(w *workload, seed int64, seconds float64) passOutcome {
	m := metrics{}
	var setupS []float64
	var in instance
	var total time.Duration
	for i := 0; i < minSetups || (i < maxSetups && total < time.Second); i++ {
		if in != nil {
			// Drop the discarded instance now, so that peak_rss_mb is the
			// workload's memory and not that of several set-ups at once.
			in.close()
			in = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(w, seed); err != nil {
			return passOutcome{attempted: 1, failed: 1, err: fmt.Errorf("set-up: %w", err)}
		}
		total += time.Since(t0)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.close()
	res := runLoop(w, in, dur(seconds), nil)
	out := passOutcome{metrics: m, attempted: res.attempted, failed: res.failed, err: res.firstErr}
	if len(res.samples) == 0 {
		out.err = fmt.Errorf("no operation completed: %v", res.firstErr)
		return out
	}
	ops, rows, flops := segmentRates(res.samples, res.window)
	for i := range flops {
		flops[i] /= 1e9
	}
	n := len(res.samples)
	p50s := segmentMedians(res.samples, res.window)
	m.e2e("setup_s", median(setupS), len(setupS), setupS)
	m.e2e("ops_s", undisturbedRate(ops), n, ops)
	m.e2e("gflops", undisturbedRate(flops), n, flops)
	m.e2e("rows_s", undisturbedRate(rows), n, rows)
	m.e2e("op_p50_ms", undisturbedLatency(p50s), n, p50s)
	m.e2e("peak_rss_mb", in.peakRSS(), 1, nil)
	checkAccuracy(w, in, &out)
	return out
}

// segmentMedians returns the median latency of each segment's own
// operations (an operation belongs to the segment it started in).
func segmentMedians(samples []sample, window time.Duration) []float64 {
	by := make([][]float64, segments)
	for _, s := range samples {
		i := min(int(s.start/(window/segments)), segments-1)
		by[i] = append(by[i], float64(s.latency())/float64(time.Millisecond))
	}
	var p50 []float64
	for _, v := range by {
		if len(v) > 0 {
			p50 = append(p50, median(v))
		}
	}
	return p50
}

// checkAccuracy verifies the last operation's outputs. Above the
// workload's ceiling the results are wrong, not just inexact, and every
// operation of the pass counts as failed.
func checkAccuracy(w *workload, in instance, out *passOutcome) float64 {
	acc, err := in.verify()
	if err == nil && !(acc <= w.ceiling) {
		err = fmt.Errorf("accuracy %.3g eps is above the ceiling of %.3g eps", acc, w.ceiling)
	}
	if err != nil {
		out.failed = out.attempted
		out.err = fmt.Errorf("verification: %w", err)
	}
	return acc
}

// onlyIn names the layer metrics that a single workload measures on the
// system it alone starts; elsewhere they read 0.
var onlyIn = map[string]string{
	"serve.server_p50_ms": "serve_mix", "serve.transport_ms": "serve_mix", "serve.throttled": "serve_mix",
	"serve.solve_p50_ms": "serve_mix", "serve.factor_p50_ms": "serve_mix", "serve.stream_rows_p50_ms": "serve_mix",
	"dist.bytes_per_op": "dist_round", "dist.compute_frac": "dist_round", "dist.combine_frac": "dist_round",
	"dist.comm_frac": "dist_round", "dist.overlap_frac": "dist_round",
}

// tracedPass measures the per-layer metrics: an untraced baseline loop, the
// same loop with spans recorded around every call into a layer, the factor
// ledger on the workload's reference shape, and the fixed probes.
func tracedPass(w *workload, seed int64, seconds float64, sz probeSizes, tracePath string) passOutcome {
	m := metrics{}
	in, err := setUp(w, seed)
	if err != nil {
		return passOutcome{attempted: 1, failed: 1, err: fmt.Errorf("set-up: %w", err)}
	}
	defer in.close()
	base := runLoop(w, in, dur(seconds/4), nil)
	if err := warmLoop(w, in, in.warmOps(), true); err != nil {
		return passOutcome{attempted: base.attempted + 1, failed: base.failed + 1, err: err}
	}
	tr := newTracer()
	traced := runLoop(w, in, dur(seconds/4), tr)
	out := passOutcome{metrics: m, attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed}
	for _, r := range []*loopResult{base, traced} {
		if out.err == nil {
			out.err = r.firstErr
		}
	}
	if len(base.samples) == 0 || len(traced.samples) == 0 {
		out.err = fmt.Errorf("no operation completed: %v", out.err)
		return out
	}
	printSelfTimes(w.name, tr)
	m.layer("trace_overhead_frac", traced.p50()/base.p50()-1, len(traced.samples))
	// The tails: both loops pooled; 0 where fewer than ten samples lie
	// beyond the percentile.
	all := append(latenciesMS(base.samples), latenciesMS(traced.samples)...)
	for _, t := range []struct {
		name string
		q    float64
	}{{"op_p90_ms", 0.90}, {"op_p95_ms", 0.95}} {
		p, ok := percentile(all, t.q)
		if !ok {
			p = 0
		}
		m.layer(t.name, p, len(all))
	}
	acc := checkAccuracy(w, in, &out)
	m.layer("accuracy_eps", acc, 1)
	m.layer("failed_frac", float64(out.failed)/float64(out.attempted), out.attempted)

	in.layers(m)
	for name, owner := range onlyIn {
		if owner != w.name {
			m.layer(name, 0, 0)
		}
	}
	// The factor ledger: a factor workload filled it during the traced
	// loop; any other workload runs traced factorizations of its
	// reference shape now.
	l, ok := in.(ledgered)
	if !ok {
		l = newRefInst(w.ref, seed)
		defer l.close()
		tr.lane0 = 10 // below the workload's own callers in the viewer
		runLoop(&workload{name: "ref", callers: 1}, l, dur(seconds/10), tr)
	}
	l.factorLayers(m, dur(seconds/5))
	fixedProbes(m, sz)
	if err := tr.writeChromeTrace(tracePath); err != nil && out.err == nil {
		out.err = err
	}
	return out
}

// printSelfTimes prints where the traced operations' time went: per span
// name, the self time (the span minus what its children cover) per
// operation and as a share of the operations' wall clock. Replayed steps
// are listed too; they lie outside the operations and add to no share.
func printSelfTimes(name string, tr *tracer) {
	self := selfTimes(tr.spans)
	var ops int
	var wall time.Duration
	for _, s := range tr.spans {
		if s.name == "op" {
			ops++
			wall += s.dur()
		}
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		if k != "replay" {
			fmt.Printf("%-14s self %-20s %10.4f ms/op %6.1f%%\n", name, k,
				float64(self[k])/float64(time.Millisecond)/float64(ops), 100*ratio(float64(self[k]), float64(wall)))
		}
	}
}

// ledgered is an instance that fills a factor ledger when traced.
type ledgered interface {
	instance
	factorLayers(m metrics, budget time.Duration)
}

// newRefInst is a cold factor-and-solve instance of a reference shape.
func newRefInst(sh shape, seed int64) ledgered {
	if sh.prec == "z" {
		return newFactorInst(sh, pubZ, 1, false, 1, seed)
	}
	return newFactorInst(sh, pubD, 1, false, 1, seed)
}

// runPass runs one pass and turns what it found into the driver's result.
func runPass(w *workload, seed int64, seconds float64, trace bool, e env, outDir string) (result, metrics) {
	var po passOutcome
	specs := endToEnd
	if trace {
		specs = perLayer
		po = tracedPass(w, seed, seconds, fixedSizes(e, seconds), filepath.Join(outDir, "trace-"+w.name+".json"))
	} else {
		po = timedPass(w, seed, seconds)
	}
	if miss := po.metrics.missing(specs); po.err == nil && len(miss) > 0 {
		po.err = fmt.Errorf("metrics not measured: %v", miss)
	}
	if po.err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, po.err)
	}
	res := result{Correct: po.err == nil, Attempted: max(po.attempted, 1), Failed: po.failed, Metrics: map[string]valueUnit{}}
	for k, v := range po.metrics {
		res.Metrics[k] = valueUnit{v.Value, v.Unit}
	}
	return res, po.metrics
}

// printTable prints `workload metric value unit samples`, one metric a line.
func printTable(name string, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-14s %-28s %14.6g %-8s %d\n", name, k, m[k].Value, m[k].Unit, m[k].Samples)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one pass over this workload and print one JSON result line")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		only         = flag.String("only", "", "with no -workload: run both passes over this workload only")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole benchmark twice and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if err := run(*workloadName, *only, *seed, *seconds, *trace == 1, *compare, *selfcheck, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name, only string, seed int64, seconds float64, trace, compare, selfcheck bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	case selfcheck:
		return selfCheck(seed)
	case name == "":
		_, err := runAll(seed, only, "results.json")
		return err
	}
	tmp, outDir, cleanup, err := hermetic()
	if err != nil {
		return err
	}
	defer cleanup()
	e := env{tmp: tmp}
	if name == "serve_mix" {
		// Built before anything is timed: setup_s is the cost of starting
		// the workload, not of compiling the server.
		if e.serverBin, err = buildServer(); err != nil {
			return err
		}
	}
	for _, w := range workloads(e) {
		if w.name != name {
			continue
		}
		res, m := runPass(w, seed, seconds, trace, e, outDir)
		printTable(w.name, m)
		detail, _ := json.Marshal(m)
		fmt.Printf("detail %s\n", detail)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			cleanup()
			os.Exit(1)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// hermetic pins what the environment could otherwise vary: scheduler
// width, the tuner's calibration file, the fault injector. It returns a
// scratch directory inside bench/out, removed by cleanup.
func hermetic() (tmp, outDir string, cleanup func(), err error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), workers))
	os.Unsetenv("TILEDQR_FAULT")
	os.Unsetenv("TILEDQR_WORKERS")
	root, err := repoRoot()
	if err != nil {
		return "", "", nil, err
	}
	outDir = filepath.Join(root, "bench", "out")
	tmp = filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", "", nil, err
	}
	os.Setenv("TILEDQR_CALIBRATION", filepath.Join(tmp, "calibration.json"))
	return tmp, outDir, func() { os.RemoveAll(tmp) }, nil
}
