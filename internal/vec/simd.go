// SIMD backend gate. The vector primitives in this package exist in two
// kernel families: the portable generic Go loops (always compiled in) and a
// hand-vectorized backend — AVX2/FMA on amd64, NEON on arm64 — selected at
// run time. The families produce results that differ only in floating-point
// rounding (the vector code uses fused multiply-add and a different
// accumulation order), so switching between them is numerically harmless
// but not bit-identical; agreement is verified to ULP-level tolerances by
// the tests in simd_test.go.
//
// Selection layers, from coarsest to finest:
//
//   - build tag `noasm`: the assembly files are excluded entirely and the
//     generic family is the only one in the binary;
//   - env TILEDQR_SIMD=off: the backend starts disabled (read once at init);
//   - SetSIMD / SetFamily: run-time flips, safe under concurrency — the gate
//     is a single atomic load per slice-level call, so the autotuner can
//     measure both families on a live process.
//
// On amd64 the backend requires AVX2+FMA with OS-enabled YMM state
// (detected via CPUID/XGETBV at init); on arm64 NEON is architecturally
// baseline, so the backend is always available unless compiled out.
package vec

import (
	"fmt"
	"os"
	"sync/atomic"
)

// EnvSIMD is the environment variable that force-disables the vector
// backend when set to "off" (read once at process start).
const EnvSIMD = "TILEDQR_SIMD"

// Kernel family names, as recorded in the autotuner's calibration cache and
// accepted by SetFamily and the -family flag of qrperf. The
// "simd" name is ISA-neutral on purpose: the calibration cache is per-host,
// and a single name lets the tuner and the bench JSON treat AVX2 and NEON
// hosts uniformly. SIMDName reports the concrete ISA for diagnostics.
const (
	FamilyGeneric = "generic"
	FamilySIMD    = "simd"
)

var simdEnabled atomic.Bool

func init() {
	simdEnabled.Store(simdArchSupported && os.Getenv(EnvSIMD) != "off")
}

// SIMDSupported reports whether this binary carries a vector backend usable
// on the host CPU (compiled in and the required ISA features are present).
func SIMDSupported() bool { return simdArchSupported }

// SIMDEnabled reports whether the vector backend is currently active.
func SIMDEnabled() bool { return simdEnabled.Load() }

// SIMDName returns the concrete ISA of the vector backend ("avx2", "neon"),
// or "" when the binary has none for this host.
func SIMDName() string {
	if simdArchSupported {
		return simdArchName
	}
	return ""
}

// SetSIMD enables or disables the vector backend and returns the resulting
// state (enabling is a no-op on hosts without backend support). The flip is
// atomic and safe to perform while kernels run on other goroutines; calls
// already past their dispatch point finish on the family they started with.
func SetSIMD(on bool) bool {
	simdEnabled.Store(on && simdArchSupported)
	return simdEnabled.Load()
}

// ActiveFamily returns the kernel family the primitives currently dispatch
// to: FamilySIMD when the vector backend is enabled, else FamilyGeneric.
func ActiveFamily() string {
	if simdEnabled.Load() {
		return FamilySIMD
	}
	return FamilyGeneric
}

// Families lists the kernel families selectable on this host, generic
// first. Hosts without a usable vector backend list only the generic
// family.
func Families() []string {
	if simdArchSupported {
		return []string{FamilyGeneric, FamilySIMD}
	}
	return []string{FamilyGeneric}
}

// SetFamily activates the named kernel family. It rejects — rather than
// silently degrades — a request for the SIMD family on a host without
// backend support, so benchmarks asked to measure a specific family fail
// loudly instead of re-measuring the generic one under the wrong label.
func SetFamily(name string) error {
	switch name {
	case FamilyGeneric:
		simdEnabled.Store(false)
		return nil
	case FamilySIMD:
		if !simdArchSupported {
			return fmt.Errorf("vec: kernel family %q not available on this host (no SIMD backend)", name)
		}
		simdEnabled.Store(true)
		return nil
	}
	return fmt.Errorf("vec: unknown kernel family %q (want %q or %q)", name, FamilyGeneric, FamilySIMD)
}

// simdMinLen gates slice-level dispatch: below this length the call
// overhead of the assembly kernels beats their vector win and the generic
// loops are used even with the backend enabled. Tests exercise the assembly
// entry points directly, so short inputs stay covered.
const simdMinLen = 16
