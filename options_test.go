package tiledqr

import (
	"strings"
	"testing"
)

// TestInnerBlockValidation: an explicit InnerBlock wider than the tile must
// be rejected with a descriptive error on every entry point, instead of
// GEQRT silently misbehaving.
func TestInnerBlockValidation(t *testing.T) {
	bad := Options{TileSize: 8, InnerBlock: 32}
	if _, err := Factor(RandomDense(16, 16, 1), bad); err == nil {
		t.Error("Factor accepted InnerBlock > TileSize")
	} else if !strings.Contains(err.Error(), "InnerBlock") || !strings.Contains(err.Error(), "TileSize") {
		t.Errorf("Factor error not descriptive: %v", err)
	}
	if _, err := FactorComplex(RandomMat[complex128](16, 16, 1), bad); err == nil {
		t.Error("FactorComplex accepted InnerBlock > TileSize")
	}
	if _, err := FactorOf(nil, RandomMat[float32](16, 16, 1), bad); err == nil {
		t.Error("FactorOf[float32] accepted InnerBlock > TileSize")
	}
	if _, err := FactorOf(nil, RandomMat[complex64](16, 16, 1), bad); err == nil {
		t.Error("FactorOf[complex64] accepted InnerBlock > TileSize")
	}
	if _, err := NewStreamOf[float64](16, bad); err == nil {
		t.Error("NewStreamOf[float64] accepted InnerBlock > TileSize")
	}
	if _, err := NewStreamOf[complex128](16, bad); err == nil {
		t.Error("NewStreamOf[complex128] accepted InnerBlock > TileSize")
	}
	if _, err := NewStreamOf[float32](16, bad); err == nil {
		t.Error("NewStreamOf[float32] accepted InnerBlock > TileSize")
	}
	if _, err := NewStreamOf[complex64](16, bad); err == nil {
		t.Error("NewStreamOf[complex64] accepted InnerBlock > TileSize")
	}
}

// TestDefaultInnerBlockCapped: when InnerBlock is defaulted, small tiles
// must get a clamped inner block rather than an error.
func TestDefaultInnerBlockCapped(t *testing.T) {
	if _, err := Factor(RandomDense(16, 16, 1), Options{TileSize: 4}); err != nil {
		t.Errorf("defaulted InnerBlock with small TileSize errored: %v", err)
	}
	o := Options{TileSize: 4}.withDefaults()
	if o.InnerBlock != 4 {
		t.Errorf("defaulted InnerBlock = %d, want 4 (capped at TileSize)", o.InnerBlock)
	}
}

// TestParseNames: every Algorithm and Kernels value reads back from its own
// name in any case, and a name that is nobody's is an error listing the
// ones that are.
func TestParseNames(t *testing.T) {
	for a := Greedy; a <= AlgorithmAuto; a++ {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			if got, err := ParseAlgorithm(name); err != nil || got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, a)
			}
		}
	}
	for k := TT; k <= TS; k++ {
		for _, name := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseKernels(name); err != nil || got != k {
				t.Errorf("ParseKernels(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for _, name := range []string{"", "Algorithm(9)", "Sameh-Kuck"} {
		if _, err := ParseAlgorithm(name); err == nil || !strings.Contains(err.Error(), "HadriTree") {
			t.Errorf("ParseAlgorithm(%q): error %v, want one listing the names", name, err)
		}
		if _, err := ParseKernels(name); err == nil || !strings.Contains(err.Error(), "TS") {
			t.Errorf("ParseKernels(%q): error %v, want one listing the names", name, err)
		}
	}
}
