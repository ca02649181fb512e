package serve

import (
	"math"
	"net/http"
	"testing"

	"tiledqr/internal/core"
	"tiledqr/internal/dist"
	"tiledqr/internal/fault"
	"tiledqr/internal/vec"
)

// precisionContract checks, for one scalar domain, that vec.Prec's tag is
// the one every consumer of the precision identity expects.
func precisionContract[T vec.Scalar](t *testing.T, index int, tag string, wireBytes int) {
	t.Helper()
	p := vec.Prec[T]()
	if int(p) != index || p.Tag() != tag {
		t.Fatalf("vec.Prec = %d/%q, want %d/%q", p, p.Tag(), index, tag)
	}
	// serve: the domains table is keyed by the tag its entry reports.
	o, ok := domains[tag]
	if !ok || o.Precision() != tag || o.IsComplex() != vec.IsComplex[T]() {
		t.Errorf("serve domains[%q] missing or mislabelled", tag)
	}
	// fault: a prec= filter set to the tag matches this domain's tasks.
	fault.Set(fault.Config{Mode: fault.ModeError, Kind: fault.AnyKind, Prec: tag, Index: -1})
	defer fault.Reset()
	if _, hit := fault.Check(core.KGEQRT, p.Tag()); !hit {
		t.Errorf("fault prec=%s filter does not match vec.Prec's tag %q", tag, p.Tag())
	}
	// dist: the wire sizes one scalar by the header's precision byte; an
	// unknown tag would size it 0 and accept the short payload.
	one := make([]T, 1)
	if err := dist.UnpackScalars(one, make([]byte, wireBytes-1)); err == nil {
		t.Errorf("dist wire does not know precision %q as %d bytes/scalar", tag, wireBytes)
	}
	if err := dist.UnpackScalars(one, make([]byte, wireBytes)); err != nil {
		t.Errorf("dist wire rejects a %d-byte %q scalar: %v", wireBytes, tag, err)
	}
}

func TestPrecisionTagContract(t *testing.T) {
	t.Run("s", func(t *testing.T) { precisionContract[float32](t, 0, "s", 4) })
	t.Run("d", func(t *testing.T) { precisionContract[float64](t, 1, "d", 8) })
	t.Run("c", func(t *testing.T) { precisionContract[complex64](t, 2, "c", 8) })
	t.Run("z", func(t *testing.T) { precisionContract[complex128](t, 3, "z", 16) })
	if len(domains) != 4 {
		t.Errorf("serve has %d domains, want 4", len(domains))
	}
}

// TestReusableFactorSessionAllPrecisions drives the FactorIntoOf session
// (R only, then a same-shape resubmission that reuses the arena and
// solves) in every domain — the paths that call the generic API directly.
func TestReusableFactorSessionAllPrecisions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, prec := range []string{"d", "z", "s", "c"} {
		var created streamCreateReply
		if code := postJSON(t, ts.URL+"/v1/streams", streamCreateRequest{Kind: "factor", Precision: prec}, &created); code != http.StatusOK {
			t.Fatalf("%s: factor session create: status %d", prec, code)
		}
		a := wellConditioned(10, 4, prec)
		url := ts.URL + "/v1/streams/" + created.ID + "/factor"
		var r1 streamFactorReply
		if code := postJSON(t, url, streamFactorRequest{Matrix: a}, &r1); code != http.StatusOK {
			t.Fatalf("%s: factor submit 1: status %d", prec, code)
		}
		if r1.R == nil || r1.X != nil || r1.R.Rows != 4 || r1.R.Cols != 4 {
			t.Fatalf("%s: factor submit 1: want a 4×4 R only, got %+v", prec, r1)
		}
		var r2 streamFactorReply
		if code := postJSON(t, url, streamFactorRequest{Matrix: a, RHS: matTimesOnes(a, prec, 2)}, &r2); code != http.StatusOK {
			t.Fatalf("%s: factor submit 2: status %d", prec, code)
		}
		if r2.X == nil {
			t.Fatalf("%s: factor submit 2: want X, got %+v", prec, r2)
		}
		for i := 0; i < 4; i++ {
			if got := solutionAt(r2.X, prec, i); math.Abs(got-2) > tolFor(prec) {
				t.Fatalf("%s: factor submit 2: x[%d] = %v, want 2", prec, i, got)
			}
		}
	}
}
