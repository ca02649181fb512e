package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec names one metric the harness emits. BENCHMARK.json lists the
// same names with the same unit and direction (bench_test.go holds the two
// in step); the regression bounds live only in BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"gflops", "GFLOP/s", "higher"},
	{"rows_s", "rows/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// kinds are the six tile kernels in the order of core.Kind.
var kinds = []string{"geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"}

// perLayer is measured by the traced pass only. Metrics of a layer that
// does no work in a workload (dist.* outside dist_round, serve.server_* and
// the per-endpoint figures outside serve_mix) read 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	s := []metricSpec{
		// demoted from the end-to-end table: exact or too noisy for a bound
		{"failed_frac", "fraction", "lower"},
		{"accuracy_eps", "eps", "lower"},
		{"op_p90_ms", "ms", "lower"},
		{"op_p95_ms", "ms", "lower"},
		{"par_speedup", "ratio", "higher"},
		{"trace_overhead_frac", "fraction", "lower"},

		{"vec.gemm_f64_gflops", "GFLOP/s", "higher"},
		{"vec.gemm_c128_gflops", "GFLOP/s", "higher"},
		{"vec.axpy_f64_gflops", "GFLOP/s", "higher"},
	}
	for _, prec := range []string{"f64", "c128"} {
		for _, k := range kinds {
			s = append(s, metricSpec{"kernel." + k + "_" + prec + "_gflops", "GFLOP/s", "higher"})
		}
	}
	s = append(s, metricSpec{"kernel.busy_frac", "fraction", "higher"})
	for _, k := range kinds {
		s = append(s, metricSpec{"kernel.share." + k, "fraction", "lower"})
	}
	return append(s, []metricSpec{
		{"sched.dispatch_ns_per_task", "ns", "lower"},
		{"sched.idle_frac", "fraction", "lower"},
		{"sched.eff_workers", "workers", "higher"},
		{"sched.tasks_per_op", "count", "lower"},

		{"core.dag_build_us", "us", "lower"},
		{"core.tasks", "count", "lower"},
		{"core.cp_units", "count", "lower"},

		{"sim.predicted_ms", "ms", "lower"},
		{"sim.efficiency", "ratio", "higher"},
		{"model.roofline_ms", "ms", "lower"},
		{"model.efficiency", "ratio", "higher"},

		{"engine.cold_ms", "ms", "lower"},
		{"engine.reuse_ms", "ms", "lower"},
		{"engine.cold_overhead_frac", "fraction", "lower"},
		{"engine.solve_ms", "ms", "lower"},
		{"engine.alloc_kb_per_op", "KB", "lower"},
		{"engine.mallocs_per_op", "count", "lower"},
		{"engine.unattributed_frac", "fraction", "lower"},

		{"tile.copy_in_us", "us", "lower"},
		{"tile.copy_in_gbs", "GB/s", "higher"},
		{"tile.copy_out_us", "us", "lower"},

		{"tune.calibrate_s", "s", "lower"},
		{"tune.resolve_us", "us", "lower"},
		{"tune.pred_err_frac", "fraction", "lower"},

		{"stream.append_ms", "ms", "lower"},
		{"stream.window_append_ms", "ms", "lower"},
		{"stream.downdate_frac", "fraction", "lower"},
		{"stream.solve_us", "us", "lower"},
		{"stream.footprint_kb", "KB", "lower"},

		{"serve.req_mb", "MB", "lower"},
		{"serve.resp_kb", "KB", "lower"},
		{"serve.decode_ms", "ms", "lower"},
		{"serve.encode_ms", "ms", "lower"},
		{"serve.codec_frac", "fraction", "lower"},
		{"serve.compute_ms", "ms", "lower"},
		{"serve.server_p50_ms", "ms", "lower"},
		{"serve.transport_ms", "ms", "lower"},
		{"serve.solve_p50_ms", "ms", "lower"},
		{"serve.factor_p50_ms", "ms", "lower"},
		{"serve.stream_rows_p50_ms", "ms", "lower"},
		{"serve.throttled", "count", "lower"},

		{"dist.bytes_per_op", "bytes", "lower"},
		{"dist.compute_frac", "fraction", "higher"},
		{"dist.combine_frac", "fraction", "lower"},
		{"dist.comm_frac", "fraction", "lower"},
		{"dist.overlap_frac", "fraction", "higher"},
		{"dist.pack_gbs", "GB/s", "higher"},
	}...)
}

// metric is one emitted value. Samples is the number of observations behind
// it (0 for a count read off a data structure).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Spread is the within-run noise of the value: the quartile distance of
	// its per-segment (or per-setup) estimates over their median.
	Spread float64 `json:"spread,omitempty"`
}

type metrics map[string]metric

// set records a value under a declared name; the unit comes from the spec
// so that the harness and BENCHMARK.json cannot disagree about it.
func (m metrics) set(specs []metricSpec, name string, v float64, samples int) {
	for _, s := range specs {
		if s.name == name {
			m[name] = metric{Value: v, Unit: s.unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (m metrics) e2e(name string, v float64, samples int, parts []float64) {
	m.set(endToEnd, name, v, samples)
	x := m[name]
	x.Spread = relSpread(parts)
	m[name] = x
}

func (m metrics) layer(name string, v float64, samples int) { m.set(perLayer, name, v, samples) }

// missing lists the declared metrics the run did not emit.
func (m metrics) missing(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		if _, ok := m[s.name]; !ok {
			out = append(out, s.name)
		}
	}
	return out
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json: `go run ./bench` starts at the root, `go test` in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
