package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// rateSeries flattens a decoded -kernels-json file into its named "higher
// is better" series: every numeric member of an object whose key ends in
// _gflops, at the top level and per family, so sizes such as nb and ib are
// never selected. The "baseline" subtree — the seed figures a kernels file
// carries for reference — is not descended, and arrays are not either:
// their elements have no stable name to gate under.
func rateSeries(out map[string]float64, prefix string, obj map[string]any) {
	inGflops := strings.HasSuffix(prefix, "_gflops.")
	for key, v := range obj {
		name := prefix + key
		switch v := v.(type) {
		case float64:
			if inGflops {
				out[name] = v
			}
		case map[string]any:
			if key != "baseline" {
				rateSeries(out, name+".", v)
			}
		}
	}
}

// compareBench returns one line per series that regressed beyond the
// tolerance (new < old·(1 − tol/100)), sorted by series name, along with
// the number of series actually compared. An empty regression list means
// the gate passes — but only if compared > 0; a zero count means the two
// files share no series (schema drift, half-written report) and the caller
// must fail rather than report a vacuous pass.
func compareBench(oldRep, newRep map[string]any, tolPct float64) (regressions []string, compared int) {
	oldS, newS := map[string]float64{}, map[string]float64{}
	rateSeries(oldS, "", oldRep)
	rateSeries(newS, "", newRep)
	names := make([]string, 0, len(oldS))
	for name := range oldS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ov := oldS[name]
		nv, ok := newS[name]
		if ov <= 0 || !ok || nv <= 0 {
			continue // series absent on one side: nothing to gate
		}
		compared++
		if nv < ov*(1-tolPct/100) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3f -> %.3f (%+.1f%%, tolerance -%.0f%%)",
					name, ov, nv, (nv/ov-1)*100, tolPct))
		}
	}
	return regressions, compared
}

// readReport decodes one -kernels-json file for comparison.
func readReport(path string) (map[string]any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runCompare implements `qrperf -compare old.json new.json [-tolerance N]`:
// it prints every regression beyond tolerance and returns the process exit
// code (0 = gate passes). The trailing -tolerance form is accepted so the
// flag may follow the positional file arguments.
func runCompare(args []string, tolPct float64) int {
	var files []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-tolerance" || args[i] == "--tolerance") && i+1 < len(args) {
			if _, err := fmt.Sscanf(args[i+1], "%g", &tolPct); err != nil {
				fmt.Fprintf(os.Stderr, "qrperf -compare: bad tolerance %q\n", args[i+1])
				return 2
			}
			i++
			continue
		}
		files = append(files, args[i])
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: qrperf -compare old.json new.json [-tolerance pct]")
		return 2
	}
	oldRep, err := readReport(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newRep, err := readReport(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	regressions, compared := compareBench(oldRep, newRep, tolPct)
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "bench gate FAILED: %s and %s share no comparable series — schema drift or a half-written report would otherwise disarm the gate silently\n",
			files[0], files[1])
		return 1
	}
	if len(regressions) == 0 {
		fmt.Printf("bench gate passed: %d series compared, none regressed beyond %.0f%% (%s vs %s)\n",
			compared, tolPct, files[0], files[1])
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench gate FAILED: %d series regressed beyond %.0f%%:\n", len(regressions), tolPct)
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "  "+r)
	}
	return 1
}
