package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resultsFile is bench/out/results.json: one whole run of the benchmark.
type resultsFile struct {
	Host      hostInfo           `json:"host"`
	Workloads map[string]metrics `json:"workloads"`
}

// runAll runs both passes over every workload (or one), each pass in a
// process of its own so that set-up time and peak memory belong to one
// workload, prints the table and writes the results file.
func runAll(seed int64, only, file string) (*resultsFile, error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return nil, err
	}
	_, outDir, cleanup, err := hermetic()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &resultsFile{Host: readHost(seed), Workloads: map[string]metrics{}}
	var failed []string
	for _, w := range workloads(env{}) {
		if only != "" && only != w.name {
			continue
		}
		all := metrics{}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(bf.RunSeconds), "-trace", trace)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			m, perr := parseDetail(raw)
			if err != nil || perr != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v %v", w.name, trace, err, perr))
			}
			for k, v := range m {
				all[k] = v
			}
		}
		printTable(w.name, all)
		if miss := append(all.missing(endToEnd), all.missing(perLayer)...); len(miss) > 0 {
			failed = append(failed, fmt.Sprintf("%s: metrics not measured: %v", w.name, miss))
		}
		out.Workloads[w.name] = all
	}
	if len(out.Workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", path)
	if len(failed) > 0 {
		return out, fmt.Errorf("failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return out, nil
}

// parseDetail finds the `detail {...}` line a single pass prints before its
// result line: the metrics with their sample counts and spreads.
func parseDetail(stdout []byte) (metrics, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			var m metrics
			return m, json.Unmarshal([]byte(rest), &m)
		}
	}
	return nil, fmt.Errorf("pass printed no metrics")
}

func loadResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	_, err = compareResults(a, b, true)
	return err
}

// floors are the absolute differences under which two single passes count
// as the same whatever their ratio (the issue's floors): most set-ups last a
// tenth of a second, and one pass reads that no better than to a few
// hundredths. The driver, which compares medians of ten passes, has no floor.
var floors = map[string]float64{"setup_s": 0.2, "peak_rss_mb": 8}

// verdict places b against a for one bounded metric. It is unresolved when
// either side's own spread is wider than the bound: a difference smaller
// than the noise is not a finding either way.
func verdict(a, b metric, better string, bound, floor float64) string {
	if math.Abs(b.Value-a.Value) < floor {
		return "same"
	}
	if a.Spread > bound || b.Spread > bound {
		return "unresolved"
	}
	change := ratio(b.Value-a.Value, a.Value)
	if better == "lower" {
		change = -change
	}
	switch {
	case change > bound:
		return "better"
	case change < -bound:
		return "worse"
	}
	return "same"
}

// compareResults prints one row per workload and metric and returns the
// end-to-end rows that differ by more than their bound, either way.
func compareResults(a, b *resultsFile, print bool) (differ []string, err error) {
	if a.Host.CPU != b.Host.CPU || a.Host.Cores != b.Host.Cores || a.Host.VecFamily != b.Host.VecFamily {
		return nil, fmt.Errorf("results are from different hosts and cannot be compared: %s/%d cores/%s against %s/%d cores/%s",
			a.Host.CPU, a.Host.Cores, a.Host.VecFamily, b.Host.CPU, b.Host.Cores, b.Host.VecFamily)
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		return nil, err
	}
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if print {
		fmt.Printf("%-14s %-28s %14s %14s %-8s %6s  %s\n", "workload", "metric", "a", "b", "unit", "bound", "verdict")
	}
	for _, name := range names {
		ma, mb := a.Workloads[name], b.Workloads[name]
		for _, spec := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
			va, okA := ma[spec.Name]
			vb, okB := mb[spec.Name]
			if !okA || !okB {
				continue
			}
			bound, v := "-", fmt.Sprintf("%+.1f%%", 100*ratio(vb.Value-va.Value, va.Value))
			if spec.Bound > 0 {
				bound, v = fmt.Sprintf("%.0f%%", 100*spec.Bound), verdict(va, vb, spec.Better, spec.Bound, floors[spec.Name])
				if v == "better" || v == "worse" {
					differ = append(differ, name+" "+spec.Name)
				}
			}
			if print {
				fmt.Printf("%-14s %-28s %14.6g %14.6g %-8s %6s  %s\n", name, spec.Name, va.Value, vb.Value, va.Unit, bound, v)
			}
		}
	}
	return differ, nil
}

// selfCheck runs the whole benchmark twice on the same code; the two runs
// must agree on every end-to-end metric within the benchmark's own bounds.
func selfCheck(seed int64) error {
	a, err := runAll(seed, "", "selfcheck-a.json")
	if err != nil {
		return err
	}
	b, err := runAll(seed, "", "selfcheck-b.json")
	if err != nil {
		return err
	}
	differ, err := compareResults(a, b, true)
	if err != nil {
		return err
	}
	if len(differ) > 0 {
		return fmt.Errorf("two runs of the same code differ by more than the bound on: %s", strings.Join(differ, ", "))
	}
	return nil
}
