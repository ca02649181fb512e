// Package tune is the autotuning layer behind tiledqr.AlgorithmAuto: it
// calibrates the host's sequential kernel throughput per precision with
// short micro-benchmarks, persists the calibration to a versioned on-disk
// cache, and combines it with the bounded-processor simulator of
// internal/sim to pick the predicted-fastest (algorithm, tile size, inner
// block, kernel family) for a concrete m×n shape — turning the paper's
// offline Tables 1–3 analysis into a runtime decision procedure.
//
// Calibration is lazy and per (kernel family, precision): the first Auto
// factorization in a given scalar domain measures the six kernels under the
// vec backend currently active (generic loops or the SIMD family), and
// measuring the other family on demand flips the backend around the
// micro-benchmarks. Each combination measures
// GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR at a
// handful of candidate (nb, ib) points (tens of milliseconds per point) and
// the result is cached at ~/.cache/tiledqr/calibration.json — overridable
// with the TILEDQR_CALIBRATION environment variable ("off" disables
// persistence entirely). A corrupt, truncated or schema-incompatible cache
// file is ignored and recalibrated, never an error; concurrent first uses
// are single-flighted so the micro-benchmarks run once.
package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// SchemaVersion identifies the calibration file layout. Bumping it
// invalidates every cached calibration: old files are silently ignored and
// the host is re-measured. Version 2 added the kernel-family axis (points
// are stored per vec family per precision), so version-1 caches — which
// cannot say whether their numbers came from the generic or the SIMD
// backend — recalibrate on first use. Version 3 changes no field: it retires
// calibrations taken before the panel kernels went column-contiguous and
// while the timing harness still allocated a tile per timed call (biased
// against the cheap kernels), so old and new speeds are never mixed.
// Version 4 changes no field either: it retires the complex-domain SIMD rates
// measured before the complex update sweeps ran on the packed micro-GEMM
// (2–4× low since), which would otherwise rank complex candidates on the old
// kernels. Version 5, again no field: it retires the complex rates measured
// before the complex panel sweeps ran on the real vector kernels and the
// complex block-reflector heads joined the packed GEMM (the complex factor
// and apply kernels are 1.2–2× faster since). Version 6, no field: it
// retires the real rates measured before the real block-reflector applies
// joined the packed GEMM with B read in place (the double factor and apply
// kernels are 1.1–1.7× faster since). Version 7, no field: it retires the
// rates measured on the AVX2 micro-tile alone, before AVX-512F hosts ran
// every packed product on the 4×16 (float32 4×32) zmm tile, which would
// otherwise rank candidates on the old GEMM.
const SchemaVersion = 7

// EnvCalibration overrides the calibration cache location. Set it to a file
// path to relocate the cache, or to "off" to disable persistence (the
// calibration then lives only in process memory).
const EnvCalibration = "TILEDQR_CALIBRATION"

// calNBs are the candidate tile sizes measured during calibration and
// considered by the resolver; ib follows IBFor. The range brackets the
// paper's 80..200 guidance plus a small-tile point for latency-bound
// shapes.
var calNBs = []int{48, 64, 96, 128, 192}

// IBFor returns the default inner blocking for a tile size: nb/4 clamped to
// [4, 48] (and never above nb), the paper's ib ≈ nb/6..nb/4 regime.
func IBFor(nb int) int {
	ib := nb / 4
	if ib < 4 {
		ib = 4
	}
	if ib > 48 {
		ib = 48
	}
	if ib > nb {
		ib = nb
	}
	return ib
}

// Point is one calibrated (nb, ib) sample: sustained GFLOP/s per kernel
// (complex flops counted as four real flops, matching qrperf and the
// paper's Section 4 convention).
type Point struct {
	NB     int                `json:"nb"`
	IB     int                `json:"ib"`
	Gflops map[string]float64 `json:"gflops"`
}

// fileFormat is the on-disk calibration cache: one point list per kernel
// family per scalar domain, under a schema version.
type fileFormat struct {
	Version  int                           `json:"version"`
	Families map[string]map[string][]Point `json:"families"`
}

// calEntry single-flights the calibration of one (family, precision): the
// first caller measures (or loads), every concurrent caller blocks on the
// Once.
type calEntry struct {
	once sync.Once
	pts  []Point
}

var (
	calMu     sync.Mutex
	calBy     = map[string]*calEntry{} // "family/precision" → entry
	fileMu    sync.Mutex               // serializes read-merge-write of the cache file
	measureMu sync.Mutex               // serializes backend flips during measurement
	decided   sync.Map                 // decKey → Candidate (per-process decision cache)
)

// measureHook, when non-nil, replaces the real micro-benchmarks — tests use
// it to make calibration instant and observable.
var measureHook func(family, prec string) []Point

// Reset drops every in-process calibration and cached decision, forcing the
// next Auto resolution to reload (or re-measure). Intended for tests and
// for recalibration tooling; it does not touch the on-disk cache.
func Reset() {
	calMu.Lock()
	calBy = map[string]*calEntry{}
	calMu.Unlock()
	decided.Range(func(k, _ any) bool {
		decided.Delete(k)
		return true
	})
}

// precKey names a scalar domain in the calibration file.
func precKey[T vec.Scalar]() string {
	switch any((*T)(nil)).(type) {
	case *float32:
		return "float32"
	case *float64:
		return "float64"
	case *complex64:
		return "complex64"
	default:
		return "complex128"
	}
}

// ForPrecision returns the calibration points of T's domain for the kernel
// family the vec primitives currently dispatch to, measuring them on first
// use. Concurrent first uses are single-flighted; the winner persists the
// result best-effort (a read-only cache directory degrades to in-process
// calibration, never an error).
func ForPrecision[T vec.Scalar]() []Point {
	return ForFamily[T](vec.ActiveFamily())
}

// ForFamily returns the calibration points of T's domain under the named
// kernel family, measuring them on first use. Requesting the SIMD family on
// a host without a vector backend degrades to the generic family (the only
// one that can actually run there). Measuring a family other than the
// active one flips the vec backend for the duration of the micro-benchmarks
// and restores it afterwards; flips are serialized so concurrent
// calibrations of different families don't corrupt each other's timings.
func ForFamily[T vec.Scalar](family string) []Point {
	if family == vec.FamilySIMD && !vec.SIMDSupported() {
		family = vec.FamilyGeneric
	}
	prec := precKey[T]()
	key := family + "/" + prec
	calMu.Lock()
	e := calBy[key]
	if e == nil {
		e = &calEntry{}
		calBy[key] = e
	}
	calMu.Unlock()
	e.once.Do(func() {
		if pts := loadCalibration(family, prec); pts != nil {
			e.pts = pts
			return
		}
		if measureHook != nil {
			e.pts = measureHook(family, prec)
		} else {
			e.pts = measureFamily[T](family)
		}
		saveCalibration(family, prec, e.pts)
	})
	return e.pts
}

// measureFamily runs the calibration micro-benchmarks with the vec backend
// pinned to the requested family, restoring the previous backend state when
// done. The measurement lock keeps a concurrent calibration of the other
// family from flipping the backend mid-benchmark; kernels running on other
// goroutines during a flip stay correct (the families agree numerically)
// but may briefly execute on the other backend.
func measureFamily[T vec.Scalar](family string) []Point {
	measureMu.Lock()
	defer measureMu.Unlock()
	prev := vec.SIMDEnabled()
	vec.SetSIMD(family == vec.FamilySIMD)
	defer vec.SetSIMD(prev)
	return measureAll[T]()
}

// CacheLocation describes where the calibration cache lives, for tooling
// and diagnostics ("in-process only" when persistence is disabled).
func CacheLocation() string {
	path, ok := cachePath()
	if !ok {
		if os.Getenv(EnvCalibration) == "off" {
			return "in-process only ($" + EnvCalibration + "=off)"
		}
		return "in-process only (no user cache dir)"
	}
	if os.Getenv(EnvCalibration) != "" {
		return path + " ($" + EnvCalibration + ")"
	}
	return path
}

// cachePath resolves the calibration file location; ok is false when
// persistence is disabled (env "off" or no user cache directory).
func cachePath() (path string, ok bool) {
	if p := os.Getenv(EnvCalibration); p != "" {
		if p == "off" {
			return "", false
		}
		return p, true
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", false
	}
	return filepath.Join(dir, "tiledqr", "calibration.json"), true
}

// loadCalibration returns the cached points of one (family, precision), or
// nil when the file is missing, unreadable, corrupt, from another schema
// version, or holds no usable points — every failure mode means
// "recalibrate", never an error. In particular a version-1 cache (written
// before the kernel-family axis existed) fails the version check and the
// host silently re-measures.
func loadCalibration(family, prec string) []Point {
	path, ok := cachePath()
	if !ok {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f fileFormat
	if json.Unmarshal(raw, &f) != nil || f.Version != SchemaVersion {
		return nil
	}
	pts := f.Families[family][prec]
	if len(pts) == 0 {
		return nil
	}
	for _, pt := range pts {
		if pt.NB < 1 || pt.IB < 1 || pt.IB > pt.NB || len(pt.Gflops) == 0 {
			return nil
		}
		for _, g := range pt.Gflops {
			if g <= 0 {
				return nil
			}
		}
	}
	return pts
}

// saveCalibration merges one (family, precision)'s points into the cache
// file, best-effort: IO failures are ignored (the in-process copy still
// serves this run). The write is temp-file + rename so a crash never leaves
// a truncated file, and the read-merge-write is serialized so concurrent
// calibrations of different families or precisions don't drop each other.
func saveCalibration(family, prec string, pts []Point) {
	path, ok := cachePath()
	if !ok {
		return
	}
	fileMu.Lock()
	defer fileMu.Unlock()
	f := fileFormat{Version: SchemaVersion, Families: map[string]map[string][]Point{}}
	if raw, err := os.ReadFile(path); err == nil {
		var prev fileFormat
		if json.Unmarshal(raw, &prev) == nil && prev.Version == SchemaVersion && prev.Families != nil {
			f.Families = prev.Families
		}
	}
	if f.Families[family] == nil {
		f.Families[family] = map[string][]Point{}
	}
	f.Families[family][prec] = pts
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	out = append(out, '\n')
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, out, 0o644) != nil {
		return
	}
	if os.Rename(tmp, path) != nil {
		os.Remove(tmp)
	}
}

// measureAll micro-benchmarks every calibration point of one domain.
func measureAll[T vec.Scalar]() []Point {
	pts := make([]Point, 0, len(calNBs))
	for _, nb := range calNBs {
		ib := IBFor(nb)
		pts = append(pts, Point{NB: nb, IB: ib, Gflops: measurePoint[T](nb, ib)})
	}
	return pts
}

// calWindow bounds each kernel's sampling time during calibration: long
// enough to smooth timer granularity, short enough that first-use
// calibration stays well under a second per precision.
const calWindow = 8 * time.Millisecond

// TimeKernel returns seconds per run() call, sampling calls until their
// summed time passes the window (or 1<<17 calls). restore puts the
// kernel's inputs back before every call, outside the call's own
// stopwatch, so the figure is the kernel's, not the kernel's plus a tile
// copy, and cannot go negative.
func TimeKernel(restore, run func(), window time.Duration) float64 {
	restore()
	run() // warm up
	var el time.Duration
	reps := 0
	for ; el <= window && reps < 1<<17; reps++ {
		restore()
		t0 := time.Now()
		run()
		el += time.Since(t0)
	}
	return el.Seconds() / float64(reps)
}

// Gflops converts between the seconds one call of a kernel of the given
// Table 1 weight takes on nb×nb tiles of T and its GFLOP/s: a call is
// weight·nb³/3 flops, four real flops per complex one (the paper's Section 4
// convention). flops/x/1e9 is its own inverse, so passing seconds yields
// GFLOP/s and passing GFLOP/s yields seconds — the one place in the repo
// this arithmetic is written (GEMM, which is no core.Kind, has weight 6).
func Gflops[T vec.Scalar](weight, nb int, x float64) float64 {
	flopScale := 1.0
	if vec.IsComplex[T]() {
		flopScale = 4
	}
	cube := float64(nb) * float64(nb) * float64(nb)
	return flopScale * float64(weight) * cube / 3 / x / 1e9
}

// measurePoint times the six kernels at a calibration budget and converts
// to GFLOP/s.
func measurePoint[T vec.Scalar](nb, ib int) map[string]float64 {
	sec := MeasureKernelSecs[T](nb, ib, calWindow)
	out := make(map[string]float64, len(sec))
	for kind, s := range sec {
		out[kind.String()] = Gflops[T](kind.Weight(), nb, s)
	}
	return out
}

// MeasureKernelSecs micro-benchmarks the six Table 1 kernels on random
// nb×nb tiles and returns seconds per invocation, sampling each kernel for
// at least the given window. It is the one in-cache kernel-timing harness in
// the repo: calibration uses it at a short window, qrperf's experiments,
// Figures 4–5 and the benchmark-JSON emitter at a longer one. (The one other
// timing loop is the out-of-cache half of qrperf's Figures 4–5, which must
// never touch a tile between calls and so cannot restore inputs.) Every tile is allocated once up
// front and the timed calls restore their inputs by copy (see TimeKernel):
// a fresh tile per call would put the allocator and the collector inside
// the sample, which weighs most on the cheapest kernels — the TT pair whose
// trade-off against TS the tuner exists to decide.
func MeasureKernelSecs[T vec.Scalar](nb, ib int, window time.Duration) map[core.Kind]float64 {
	full1 := tile.RandDense[T](nb, nb, 1).Data
	full2 := tile.RandDense[T](nb, nb, 2).Data
	c0 := tile.RandDense[T](nb, nb, 3).Data
	tf := make([]T, ib*nb)
	t2 := make([]T, ib*nb)
	ws := make([]T, kernel.WorkLen(nb, ib))
	// tri1 and tri2 are GEQRT outputs (R on top of V), the inputs of the
	// TS/TT factor kernels; a, b, c1, c2 are the tiles the timed calls
	// overwrite.
	tri1, tri2 := slices.Clone(full1), slices.Clone(full2)
	kernel.GEQRT(nb, nb, ib, tri1, nb, tf, nb, ws)
	kernel.GEQRT(nb, nb, ib, tri2, nb, t2, nb, ws)
	a, b := make([]T, nb*nb), make([]T, nb*nb)
	c1, c2 := make([]T, nb*nb), make([]T, nb*nb)
	restoreC := func() { copy(c1, c0); copy(c2, c0) }

	sec := map[core.Kind]float64{}
	sec[core.KGEQRT] = TimeKernel(func() { copy(a, full1) }, func() {
		kernel.GEQRT(nb, nb, ib, a, nb, t2, nb, ws)
	}, window)
	sec[core.KUNMQR] = TimeKernel(func() { copy(c1, c0) }, func() {
		kernel.UNMQR(true, nb, nb, ib, tri1, nb, tf, nb, c1, nb, nb, ws)
	}, window)
	sec[core.KTSQRT] = TimeKernel(func() { copy(a, tri1); copy(b, full2) }, func() {
		kernel.TSQRT(nb, nb, ib, a, nb, b, nb, t2, nb, ws)
	}, window)
	vts := slices.Clone(b) // the last timed call left TSQRT's V₂ in b, its T in t2
	sec[core.KTSMQR] = TimeKernel(restoreC, func() {
		kernel.TSMQR(true, nb, nb, ib, vts, nb, t2, nb, c1, nb, c2, nb, nb, ws)
	}, window)
	sec[core.KTTQRT] = TimeKernel(func() { copy(a, tri1); copy(b, tri2) }, func() {
		kernel.TTQRT(nb, nb, ib, a, nb, b, nb, t2, nb, ws)
	}, window)
	// Likewise b and t2 now hold TTQRT's V₂ and T; nothing overwrites them.
	sec[core.KTTMQR] = TimeKernel(restoreC, func() {
		kernel.TTMQR(true, nb, nb, ib, b, nb, t2, nb, c1, nb, c2, nb, nb, ws)
	}, window)
	return sec
}
