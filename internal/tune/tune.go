// Package tune is the autotuning layer behind tiledqr.AlgorithmAuto: it
// times the host's sequential kernels with short micro-benchmarks and
// combines those times with the bounded-processor simulator of
// internal/sim to pick the predicted-fastest (algorithm, tile size, inner
// block, kernel family) for a concrete m×n shape — turning the paper's
// offline Tables 1–3 analysis into a runtime decision procedure.
//
// Calibration lives in the process and is measured one point at a time. A
// point is one (kernel family, precision, nb, ib): the seconds per call of
// GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR on nb×nb tiles under the vec backend
// currently active, sampled for a few milliseconds each. A point is
// measured the first time a decision prices its tile size and kept until
// Reset: an unpinned request prices the candidate tile sizes (five, fewer
// for a matrix narrower than the largest), a pinned one only its own.
// Concurrent first uses of a point are single-flighted, and points are
// measured one at a time so that two never time kernels on shared cores.
// Nothing is read from or written to disk.
package tune

import (
	"slices"
	"sync"
	"time"

	"tiledqr/internal/core"
	"tiledqr/internal/kernel"
	"tiledqr/internal/tile"
	"tiledqr/internal/vec"
)

// EnvCalibration named the environment variable that relocated or
// disabled the on-disk calibration cache. There is no cache any more and
// the library reads no variable for calibration; the name stays only while
// the benchmark harness (bench/) still sets it.
const EnvCalibration = "TILEDQR_CALIBRATION"

// calNBs are the candidate tile sizes the resolver considers when nb is
// not pinned; ib follows IBFor. The range brackets the paper's 80..200
// guidance plus a small-tile point for latency-bound shapes.
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

// calKey identifies one calibration point.
type calKey struct {
	family, prec string
	nb, ib       int
}

// calEntry single-flights the measurement of one point: the first caller
// measures, every concurrent caller blocks on the Once.
type calEntry struct {
	once sync.Once
	secs map[core.Kind]float64
}

var (
	calMu     sync.Mutex
	calBy     = map[calKey]*calEntry{}
	measureMu sync.Mutex // one point timed at a time: two would share the cores they time
	decided   sync.Map   // decKey → Candidate (per-process decision cache)
)

// measureHook, when non-nil, replaces the micro-benchmarks of one point —
// tests use it to make calibration instant and observable.
var measureHook func(family, prec string, nb, ib int) map[core.Kind]float64

// Reset drops every calibration point and cached decision, so the next
// Auto resolution measures afresh. Intended for tests and for tooling that
// times a cold calibration.
func Reset() {
	calMu.Lock()
	calBy = map[calKey]*calEntry{}
	calMu.Unlock()
	decided.Range(func(k, _ any) bool {
		decided.Delete(k)
		return true
	})
}

// precKey names a scalar domain.
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

// ForPrecision measures T's domain at every unpinned candidate point
// (calNBs at IBFor) under the active kernel family, the points an
// unpinned request on a matrix at least calNBs' largest wide prices.
// Points already measured are not measured again.
func ForPrecision[T vec.Scalar]() {
	for _, nb := range calNBs {
		pointSecs[T](nb, IBFor(nb))
	}
}

// pointSecs returns the seconds per call of each kernel on nb×nb tiles at
// inner block ib, in T's domain under the active kernel family, measuring
// the point on first use. A tile size above calNBs' largest is priced from
// that size's point with the throughput held, seconds growing as nb³: a
// request may pin any nb, and timing a kernel costs O(nb³) time and O(nb²)
// memory.
func pointSecs[T vec.Scalar](nb, ib int) map[core.Kind]float64 {
	top := calNBs[len(calNBs)-1]
	if nb <= top {
		return measured[T](nb, ib)
	}
	scale := float64(nb) / float64(top)
	scale *= scale * scale
	out := make(map[core.Kind]float64, 6)
	for k, s := range measured[T](top, min(ib, top)) {
		out[k] = s * scale
	}
	return out
}

// measured returns one point's kernel seconds, measuring it on first use.
func measured[T vec.Scalar](nb, ib int) map[core.Kind]float64 {
	key := calKey{family: vec.ActiveFamily(), prec: precKey[T](), nb: nb, ib: ib}
	calMu.Lock()
	e := calBy[key]
	if e == nil {
		e = &calEntry{}
		calBy[key] = e
	}
	calMu.Unlock()
	e.once.Do(func() {
		measureMu.Lock()
		defer measureMu.Unlock()
		if measureHook != nil {
			e.secs = measureHook(key.family, key.prec, nb, ib)
		} else {
			e.secs = MeasureKernelSecs[T](nb, ib, calWindow)
		}
	})
	return e.secs
}

// calWindow bounds each kernel's sampling time during calibration: long
// enough to smooth timer granularity, short enough that a point costs tens
// of milliseconds.
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
