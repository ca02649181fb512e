package tiledqr

import (
	"fmt"
	"strings"

	"tiledqr/internal/core"
	"tiledqr/internal/engine"
	"tiledqr/internal/tune"
	"tiledqr/internal/vec"
)

// Algorithm selects the elimination tree; see the package documentation and
// Section 3 of the paper for the trade-offs.
type Algorithm int

const (
	// Greedy is the default: never worse than the alternatives for tall
	// matrices and requires no tuning parameter.
	Greedy Algorithm = iota
	// FlatTree is Sameh-Kuck, PLASMA's historical ordering.
	FlatTree
	// BinaryTree pairs rows level by level.
	BinaryTree
	// Fibonacci is the Fibonacci scheme of order 1.
	Fibonacci
	// Asap makes elimination decisions dynamically in simulated time.
	Asap
	// Grasap runs Greedy, switching to Asap for the last GrasapK columns.
	Grasap
	// PlasmaTree uses flat trees on domains of BS rows merged by a binary
	// tree (Hadri et al., PLASMA anchoring); requires Options.BS.
	PlasmaTree
	// HadriTree is the Semi-/Fully-Parallel anchoring of the same idea
	// (top domain shrinks instead of the bottom one); requires Options.BS.
	// The paper finds PLASMA's anchoring identical or better.
	HadriTree
	// AlgorithmAuto asks the library to choose: the autotuner combines a
	// per-host kernel calibration (measured in process, one tile size at a
	// time, the first time a decision prices it; see the package
	// documentation) with the paper's bounded-processor schedule
	// model to pick the predicted-fastest algorithm and kernel family for
	// the actual matrix shape and execution width. With AlgorithmAuto,
	// TileSize = 0 and InnerBlock = 0 additionally mean "choose for me"
	// (nonzero values pin them), and the Kernels field is ignored — the
	// tuner picks the family. Use Options.Resolve to inspect or pin the
	// decision.
	AlgorithmAuto
)

func (a Algorithm) String() string {
	if a == AlgorithmAuto {
		return "Auto"
	}
	return a.core().String()
}

// ParseAlgorithm is the inverse of Algorithm.String, ignoring case: the one
// reading of an algorithm name for flags, configuration files and wire
// options.
func ParseAlgorithm(name string) (Algorithm, error) {
	var names []string
	for a := Greedy; a <= AlgorithmAuto; a++ {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
		names = append(names, a.String())
	}
	return 0, fmt.Errorf("tiledqr: unknown algorithm %q (want one of %s)", name, strings.Join(names, ", "))
}

func (a Algorithm) core() core.Algorithm {
	switch a {
	case Greedy:
		return core.Greedy
	case FlatTree:
		return core.FlatTree
	case BinaryTree:
		return core.BinaryTree
	case Fibonacci:
		return core.Fibonacci
	case Asap:
		return core.Asap
	case Grasap:
		return core.Grasap
	case PlasmaTree:
		return core.PlasmaTree
	case HadriTree:
		return core.HadriTree
	}
	return core.Algorithm(-1)
}

// algorithmFromCore maps a core algorithm back to the public enum — the
// return path of an autotuning decision.
func algorithmFromCore(a core.Algorithm) Algorithm {
	switch a {
	case core.Greedy:
		return Greedy
	case core.FlatTree:
		return FlatTree
	case core.BinaryTree:
		return BinaryTree
	case core.Fibonacci:
		return Fibonacci
	case core.Asap:
		return Asap
	case core.Grasap:
		return Grasap
	case core.PlasmaTree:
		return PlasmaTree
	}
	return HadriTree
}

// kernelsFromCore maps a core kernel family back to the public enum.
func kernelsFromCore(k core.Kernels) Kernels {
	if k == core.TS {
		return TS
	}
	return TT
}

// Algorithms lists the parameter-free algorithms, mainly for sweeps in
// examples and benchmarks.
var Algorithms = []Algorithm{Greedy, FlatTree, BinaryTree, Fibonacci, Asap}

// Kernels selects the kernel family implementing eliminations.
type Kernels int

const (
	// TT (triangle on top of triangle) maximizes parallelism; all the
	// paper's new algorithms use it.
	TT Kernels = iota
	// TS (triangle on top of square) maximizes locality and sequential
	// kernel speed; PLASMA's historical family.
	TS
)

func (k Kernels) String() string { return k.core().String() }

// ParseKernels is the inverse of Kernels.String, ignoring case.
func ParseKernels(name string) (Kernels, error) {
	for k := TT; k <= TS; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("tiledqr: unknown kernel family %q (want %v or %v)", name, TT, TS)
}

func (k Kernels) core() core.Kernels {
	if k == TS {
		return core.TS
	}
	return core.TT
}

// Options configures a factorization or an analysis. The zero value selects
// Greedy with TT kernels, tile size 128, inner blocking 32, and execution
// on the process-wide shared runtime (DefaultRuntime).
type Options struct {
	Algorithm Algorithm
	// Kernels selects the elimination kernel family: of a factorization,
	// and of a windowed stream's triangle merges (a stream merges row
	// batches with TS whatever it says). Ignored under AlgorithmAuto: the
	// tuner picks TT vs TS for each factorization, and an Auto stream
	// merges triangles with TT.
	Kernels Kernels
	// TileSize (nb) and InnerBlock (ib): the paper uses nb=200 (80..200 is
	// typical, §2) and ib=32. Zero means the package defaults — except
	// under AlgorithmAuto, where zero means "let the autotuner choose" and
	// a nonzero value pins that dimension of the decision. Tiles are nb
	// wide. The top q = ⌈n/nb⌉ tile rows, which hold the diagonal, are nb
	// tall; the rows below them are MB = c·nb tall, c the largest of 4, 2
	// and 1 that leaves at least 16 tile rows there, chosen from m, n and
	// nb alone (a tall matrix runs fewer, faster tasks, and every
	// placement the same ones).
	TileSize   int
	InnerBlock int

	// Runtime selects the persistent worker pool the factorization's task
	// DAG executes on. nil with Workers == 0 means the process-wide
	// DefaultRuntime — concurrent factorizations then share one pool of
	// GOMAXPROCS workers instead of oversubscribing the machine.
	Runtime *Runtime

	// Workers is honored only when Runtime is nil and Workers > 0: the
	// call runs on the process-wide resident runtime of that width, started
	// on first use and kept for the life of the process, so every call of
	// one width shares its workers and their warm scratch. Workers == 1
	// selects the deterministic sequential path on the calling goroutine.
	Workers int

	BS      int // PlasmaTree/HadriTree domain size, 1..p (p counts the tile rows as run, see QR.Grid)
	GrasapK int // Grasap: number of trailing Asap columns
	Trace   bool

	// CheckHealth enables numerical health checking: inputs (matrices,
	// batches, right-hand sides) are rejected up front when they contain
	// NaN or Inf entries, and every kernel task fails fast when it writes a
	// non-finite value into a tile, stopping the DAG at the first breakdown
	// (a NaN reflector, an overflow to Inf) instead of letting the poison
	// flow downstream. Off by default — the happy path pays nothing for the
	// feature.
	CheckHealth bool

	// WindowRows selects a stream's retention policy. Zero (the default)
	// retains nothing: appends are irrevocable and memory stays O(n² +
	// batch). A positive value keeps a sliding window: each append evicts
	// the rows that fall out of the most recent WindowRows. Eviction is
	// free — the window is a reduction tree of triangle merges over the
	// retained rows and evicting drops leaves — the first read after one
	// costs a triangle merge, O(n³), and the result is unconditionally
	// stable; memory is at most about twice the retained rows plus O(n²).
	// RetainAll keeps every appended row for manual DowndateRows calls —
	// memory then grows with the retained history. Streams only; one-shot
	// factorizations reject a nonzero value.
	WindowRows int

	// Forget is a stream's exponential forgetting factor λ ∈ (0, 1]: before
	// each append the represented system is scaled by √λ, so a row
	// appended k batches ago contributes with weight λᵏ to RᵀR. Zero (the
	// default) and 1 disable forgetting. Forgetting needs no retention —
	// it combines with any WindowRows setting. Streams only; one-shot
	// factorizations reject a nonzero value.
	Forget float64
}

// RetainAll is the WindowRows value that retains the full row history
// without a sliding window: every appended row stays revocable via
// DowndateRows, and memory grows with the rows retained.
const RetainAll = -1

// execEnv is the execution placement: Runtime when set, inline at
// Workers == 1, else the process-wide runtime of width Workers (the default
// one at Workers ≤ 0). Its Width is the width the autotuner prices.
func (o Options) execEnv() engine.Env {
	env := engine.Env{Workers: o.Workers}
	if o.Runtime != nil {
		env.Runtime = o.Runtime.s
	}
	return env
}

// DefaultTileSize and DefaultInnerBlock are the defaults applied by
// Options.withDefaults.
const (
	DefaultTileSize   = 128
	DefaultInnerBlock = 32
)

func (o Options) withDefaults() Options {
	if o.TileSize <= 0 {
		o.TileSize = DefaultTileSize
	}
	if o.InnerBlock <= 0 {
		// The default inner blocking never exceeds the tile: small tiles
		// are factored as one panel.
		o.InnerBlock = min(DefaultInnerBlock, o.TileSize)
	}
	return o
}

func (o Options) coreOptions() core.Options {
	return core.Options{BS: o.BS, GrasapK: o.GrasapK}
}

func (o Options) validate(p int) error {
	if err := o.validateSizes(); err != nil {
		return err
	}
	if (o.Algorithm == PlasmaTree || o.Algorithm == HadriTree) && (o.BS < 1 || o.BS > p) {
		return fmt.Errorf("tiledqr: %v needs 1 ≤ BS ≤ p (BS=%d, p=%d)", o.Algorithm, o.BS, p)
	}
	if o.WindowRows != 0 || o.Forget != 0 {
		return fmt.Errorf("tiledqr: WindowRows (%d) and Forget (%g) apply to streams (NewStreamOf), not one-shot factorizations",
			o.WindowRows, o.Forget)
	}
	return nil
}

// validateStream checks the stream-only option constraints; every stream
// constructor runs it before building the reduction core, so a bad knob is
// a descriptive construction error rather than a surprise later.
func (o Options) validateStream() error {
	if o.WindowRows < 0 && o.WindowRows != RetainAll {
		return fmt.Errorf("tiledqr: WindowRows (%d) must be positive (sliding window), zero (no retention) or RetainAll (keep the full history for manual DowndateRows)",
			o.WindowRows)
	}
	if o.Forget != 0 && (o.Forget <= 0 || o.Forget > 1) {
		return fmt.Errorf("tiledqr: Forget (%g) must lie in (0, 1]: it is the exponential forgetting factor λ scaling past rows' weight per append (0 disables forgetting)",
			o.Forget)
	}
	return nil
}

// resolveAuto turns AlgorithmAuto into a concrete (algorithm, kernel
// family, tile size, inner block) tuple for an m×n factorization in T's
// domain, honoring pinned nonzero TileSize/InnerBlock. Non-auto options
// pass through untouched (beyond the usual defaulting). The decision is
// deterministic per (shape, width, pins, precision) within a process, so
// FactorInto/Refactor fleets resolve to the identical tuple every time and
// the engine's plan/arena reuse keys on the resolved values.
func resolveAuto[T vec.Scalar](m, n int, opt Options) (Options, error) {
	if opt.Algorithm != AlgorithmAuto {
		return opt.withDefaults(), nil
	}
	// Pinned sizes obey the same constraints as explicit ones: an inner
	// block wider than a pinned tile is an error, not a silent clamp.
	if opt.TileSize > 0 {
		if err := opt.validateSizes(); err != nil {
			return Options{}, err
		}
	}
	dec, err := tune.Resolve[T](tune.Request{
		M: m, N: n,
		Workers: opt.execEnv().Width(),
		PinNB:   opt.TileSize,
		PinIB:   opt.InnerBlock,
	})
	if err != nil {
		return Options{}, err
	}
	opt.Algorithm = algorithmFromCore(dec.Algorithm)
	opt.Kernels = kernelsFromCore(dec.Kernels)
	opt.TileSize = dec.NB
	opt.InnerBlock = dec.IB
	return opt.withDefaults(), nil
}

// Resolve returns the options a float64 factorization of an m×n matrix
// would actually run with: defaults applied and, under AlgorithmAuto, the
// autotuner's (algorithm, kernel family, tile size, inner block) decision
// substituted in. Factoring with the returned options reproduces the Auto
// factorization bit for bit; edit them to pin or tweak the decision. The
// other precisions resolve with their own calibrations internally —
// FactorOf at complex128, float32 or complex64 may legitimately pick
// different tuples.
func (o Options) Resolve(m, n int) (Options, error) {
	if m < 1 || n < 1 {
		return Options{}, fmt.Errorf("tiledqr: Resolve: invalid shape %d×%d", m, n)
	}
	return resolveAuto[float64](m, n, o)
}

// validateSizes checks the grid-independent option constraints; the
// streaming constructors share it (they have no tile-row count p to
// validate against). An inner block wider than the tile would make the
// GEQRT panel sweep read past its panel, so it is rejected up front with a
// descriptive error instead of silently misbehaving.
func (o Options) validateSizes() error {
	if o.InnerBlock > o.TileSize {
		return fmt.Errorf("tiledqr: InnerBlock (%d) must not exceed TileSize (%d): kernel panels are at most one tile wide",
			o.InnerBlock, o.TileSize)
	}
	return nil
}
