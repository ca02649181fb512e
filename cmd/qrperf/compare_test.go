package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// kernelsDoc has the shape of a -kernels-json file: rate maps at the top
// level and per family, sizes beside them, and a seed baseline the gate
// must never read.
const kernelsDoc = `{
  "nb": 128, "ib": 32,
  "double_gflops":         {"GEQRT": 2.9, "TSMQR": 4.2, "GEMM": 5.6},
  "double_complex_gflops": {"GEQRT": 4.5},
  "single_gflops":         {"GEQRT": 3.5},
  "single_complex_gflops": {"GEQRT": 2.6},
  "families": {
    "generic": {"double_gflops": {"TTQRT": 2.7}, "double_complex_gflops": {"TTQRT": 4.3}},
    "simd":    {"double_gflops": {"TTQRT": 6.0}, "double_complex_gflops": {"TTQRT": 4.6}}
  },
  "baseline": {"nb": 128, "double_gflops": {"GEQRT": 1.8, "GEMM": 3.6}}
}`

func decode(t *testing.T, doc string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// at returns the object holding the last element of a dotted path, and that
// element's key.
func at(m map[string]any, path string) (map[string]any, string) {
	keys := strings.Split(path, ".")
	for _, k := range keys[:len(keys)-1] {
		m = m[k].(map[string]any)
	}
	return m, keys[len(keys)-1]
}

// scale multiplies the numeric leaf at path by f; drop deletes the subtree.
func scale(path string, f float64) func(map[string]any) {
	return func(m map[string]any) {
		obj, k := at(m, path)
		obj[k] = obj[k].(float64) * f
	}
}

func drop(path string) func(map[string]any) {
	return func(m map[string]any) {
		obj, k := at(m, path)
		delete(obj, k)
	}
}

// TestCompare is the gate's whole contract as one table over the JSON walk:
// each case edits copies of a report, compares them in memory (which series
// were compared, which are named) and again through the CLI wrapper on
// files, with -tolerance trailing the positional arguments as the Makefile
// passes it.
func TestCompare(t *testing.T) {
	type edits []func(map[string]any)
	cases := []struct {
		name     string
		old, new string // documents, before the edits below
		oldEdits edits
		newEdits edits
		tol      float64
		compared int
		regs     []string // series named, in order
	}{
		{name: "self-passes", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10},
		{name: "within-tolerance", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10,
			newEdits: edits{scale("double_gflops.GEQRT", 0.80)}},
		{name: "improvement", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10,
			newEdits: edits{scale("double_gflops.GEQRT", 3), scale("families.simd.double_gflops.TTQRT", 2)}},
		{name: "injected-regressions", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10,
			newEdits: edits{
				scale("families.simd.double_gflops.TTQRT", 0.6), // −40 %
				scale("double_gflops.GEQRT", 0.5),
				scale("single_complex_gflops.GEQRT", 0.745), // −25.5 %, just beyond
			},
			regs: []string{"double_gflops.GEQRT", "families.simd.double_gflops.TTQRT", "single_complex_gflops.GEQRT"}},
		{name: "generous-tolerance", old: kernelsDoc, new: kernelsDoc, tol: 75, compared: 10,
			newEdits: edits{scale("families.simd.double_gflops.TTQRT", 0.4)}},
		{name: "family-on-one-side", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 8,
			oldEdits: edits{drop("families.simd")},
			newEdits: edits{scale("families.simd.double_gflops.TTQRT", 0.1)}},
		{name: "old-file-without-single", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 9,
			oldEdits: edits{drop("single_gflops")},
			newEdits: edits{scale("double_gflops.GEQRT", 0.5), scale("single_gflops.GEQRT", 0.1)},
			regs:     []string{"double_gflops.GEQRT"}},
		{name: "non-positive-skipped", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 9,
			newEdits: edits{scale("double_gflops.GEMM", 0)}},
		{name: "baseline-ignored", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10,
			newEdits: edits{scale("baseline.double_gflops.GEQRT", 0.1)}},
		{name: "sizes-are-not-rates", old: kernelsDoc, new: kernelsDoc, tol: 25, compared: 10,
			newEdits: edits{scale("nb", 0.1), scale("ib", 0.1)}},
		{name: "no-shared-series", old: kernelsDoc, new: `{"nb": 128, "ib": 32}`, tol: 25, compared: 0},
		{name: "empty-report", old: kernelsDoc, new: `{}`, tol: 25, compared: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldRep, newRep := decode(t, tc.old), decode(t, tc.new)
			for _, edit := range tc.oldEdits {
				edit(oldRep)
			}
			for _, edit := range tc.newEdits {
				edit(newRep)
			}
			regs, compared := compareBench(oldRep, newRep, tc.tol)
			if compared != tc.compared {
				t.Errorf("compared %d series, want %d", compared, tc.compared)
			}
			if len(regs) != len(tc.regs) {
				t.Fatalf("regressions %v, want the series %v", regs, tc.regs)
			}
			for i, want := range tc.regs {
				if !strings.HasPrefix(regs[i], want+":") {
					t.Errorf("regression %d is %q, want series %s", i, regs[i], want)
				}
			}

			dir := t.TempDir()
			write := func(name string, rep map[string]any) string {
				raw, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				p := filepath.Join(dir, name)
				if err := os.WriteFile(p, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			wantCode := 0
			if tc.compared == 0 || len(tc.regs) > 0 {
				wantCode = 1 // a vacuous comparison must fail like a regression does
			}
			args := []string{write("old.json", oldRep), write("new.json", newRep), "-tolerance", strconv.FormatFloat(tc.tol, 'g', -1, 64)}
			// The flag default handed in is the opposite extreme, so the exit
			// code is right only if the trailing -tolerance was parsed.
			if code := runCompare(args, 100-tc.tol); code != wantCode {
				t.Errorf("runCompare%v exited %d, want %d", args[2:], code, wantCode)
			}
		})
	}
}

// TestRunCompareGate covers the CLI wrapper's usage errors; the gate's
// verdicts on readable files are TestCompare's.
func TestRunCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(kernelsDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"nb":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{oldPath, oldPath}, 0},
		{"one-file", []string{oldPath}, 2},
		{"unreadable-file", []string{oldPath, filepath.Join(dir, "absent.json")}, 2},
		{"half-written-file", []string{oldPath, badPath}, 2},
		{"bad-tolerance", []string{oldPath, oldPath, "-tolerance", "lots"}, 2},
	} {
		if code := runCompare(tc.args, 25); code != tc.want {
			t.Errorf("%s: exited %d, want %d", tc.name, code, tc.want)
		}
	}
}
