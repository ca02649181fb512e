package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// runExperiment runs one registered experiment and returns what it printed
// on stdout.
func runExperiment(t *testing.T, name string) string {
	t.Helper()
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stdout
		os.Stdout = w
		done := make(chan string)
		go func() {
			out, _ := io.ReadAll(r)
			done <- string(out)
		}()
		e.run()
		os.Stdout = saved
		w.Close()
		return <-done
	}
	t.Fatalf("experiment %q is not registered", name)
	return ""
}

// TestTablesMatchQrtables pins the fold of cmd/qrtables into -experiment:
// testdata/ holds what `qrtables -table <name>` printed at the last commit
// that had it (banded's closing line then cited a file that never existed;
// it now cites the README section). The numbers are the paper's Tables 2–5.
func TestTablesMatchQrtables(t *testing.T) {
	for _, name := range []string{"table2", "table3", "table4a", "table4b", "table5", "grasap", "banded"} {
		t.Run(name, func(t *testing.T) {
			if name == "banded" && testing.Short() {
				t.Skip("4 s of exhaustive search")
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runExperiment(t, name); got != string(want) {
				t.Errorf("-experiment %s differs from testdata/%s.txt:\n%s", name, name, got)
			}
		})
	}
}

// TestUsageListsRegistry checks the usage text and the registry name the
// same experiments, each once.
func TestUsageListsRegistry(t *testing.T) {
	var buf bytes.Buffer
	flag.CommandLine.SetOutput(&buf)
	defer flag.CommandLine.SetOutput(nil)
	usage()
	_, list, found := strings.Cut(buf.String(), "experiments:\n")
	if !found {
		t.Fatalf("usage text has no experiments section:\n%s", buf.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if len(listed) != len(experiments) {
		t.Fatalf("usage lists %d experiments, registry holds %d", len(listed), len(experiments))
	}
	seen := map[string]bool{}
	for i, e := range experiments {
		if listed[i] != e.name {
			t.Errorf("usage line %d names %q, registry %q", i, listed[i], e.name)
		}
		if seen[e.name] {
			t.Errorf("experiment %q registered twice", e.name)
		}
		seen[e.name] = true
	}
}

// TestFigure5 runs `-experiment fig5 -sizes 64 -prec d` at a short window:
// qrkernels' banner, caption (the paper's ib=32, not the Section 4 default)
// and columns, then one in-cache and one out-of-cache row of rates.
func TestFigure5(t *testing.T) {
	defer func(sizes, prec string, window time.Duration) {
		*flagSizes, *flagPrec, sampleWindow = sizes, prec, window
	}(*flagSizes, *flagPrec, sampleWindow)
	*flagSizes, *flagPrec, sampleWindow = "64", "d", 2*time.Millisecond

	lines := strings.Split(strings.TrimSpace(runExperiment(t, "fig5")), "\n")
	if len(lines) != 8 {
		t.Fatalf("want 8 lines, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[0], "kernel family: ") {
		t.Errorf("banner: %q", lines[0])
	}
	if want := "Figure 5: sequential kernel GFLOP/s, double precision (ib=32)"; lines[2] != want {
		t.Errorf("caption %q, want %q", lines[2], want)
	}
	wantCols := "nb cache GEQRT TTQRT GEQRT+TTQRT TSQRT ratio UNMQR TTMQR UNMQR+TTMQR TSMQR ratio GEMM"
	if got := strings.Join(strings.Fields(lines[3]), " "); got != wantCols {
		t.Errorf("columns %q, want %q", got, wantCols)
	}
	for i, loc := range []string{"in", "out"} {
		f := strings.Fields(lines[4+i])
		if len(f) != 13 || f[0] != "64" || f[1] != loc {
			t.Fatalf("row %d: %q, want 64 %s and 11 rates", i, lines[4+i], loc)
		}
		for _, s := range f[2:] {
			if v, err := strconv.ParseFloat(s, 64); err != nil || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("row %q: %q is not a finite positive rate", lines[4+i], s)
			}
		}
	}
}
