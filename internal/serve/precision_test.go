package serve

import (
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
	// serve: the domains table is keyed by the tag its entry reports, and
	// the entry reads one element as the values T's wire form carries.
	values := 1
	if vec.IsComplex[T]() {
		values = 2
	}
	o, ok := domains[tag]
	if !ok || o.Precision() != tag || o.CheckMatrix(&Matrix{Rows: 1, Cols: 1, Data: make([]float64, values)}, 0) != nil {
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
