// Package tiledqr implements tiled QR factorization of dense matrices on
// multicore machines, reproducing "Tiled QR factorization algorithms"
// (Bouwmeester, Jacquelin, Langou, Robert, 2011).
//
// An m×n matrix (any m, n ≥ 1) is partitioned into tiles nb wide and
// factored as A = Q·R by a sequence of tile-level Householder
// transformations. The top q = ⌈n/nb⌉ tile rows, which hold the diagonal,
// are nb×nb tiles; below them a tall matrix's rows are cut into tiles
// MB = c·nb rows tall, c the largest of 4, 2 and 1 that leaves 16 tile rows
// there (from the shape alone, so every placement runs the same tasks). One
// GEQRT on a c·nb-row tile does the work of c GEQRTs and c−1 TTQRTs, and
// faster (on a 2-vCPU Xeon in double, 1.3–1.5× at nb = 128 and 1.7–2.2×
// at nb = 64, for c = 2 and 4), so a 16384×128 panel runs 33 tile rows
// instead of 128. The order of the
// transformations — the elimination tree, over the tile rows as run —
// determines the available parallelism:
//
//   - FlatTree (Sameh-Kuck): best for square matrices, PLASMA's default
//   - BinaryTree: best for a single column of tiles
//   - Fibonacci and Greedy: the paper's contribution, asymptotically
//     optimal whenever p = λq; best for tall matrices (p ≥ 2q)
//   - PlasmaTree(BS): flat trees on row domains merged by a binary tree
//   - Asap and Grasap(k): dynamic variants of Greedy (§3.2)
//
// Eliminations are implemented with either TT (triangle-on-top-of-triangle)
// kernels, which maximize parallelism, or TS (triangle-on-top-of-square)
// kernels, which maximize locality.
//
// Beyond factorization, the package exposes the paper's analysis machinery:
// elimination lists, critical paths via a discrete-event simulator,
// bounded-worker makespans, and the roofline performance predictor used in
// Section 4 of the paper.
//
// # Quick start
//
//	a := tiledqr.RandomDense(1200, 300, 1)
//	f, err := tiledqr.Factor(a, tiledqr.Options{Algorithm: tiledqr.Greedy, TileSize: 100})
//	if err != nil { ... }
//	r := f.R()        // 300×300 upper triangular
//	q := f.ThinQ()    // 1200×300 with orthonormal columns
//
// See the examples directory for least-squares solving, orthonormal basis
// construction, streaming ingestion, and schedule analysis.
//
// # Architecture: one generic engine, four precisions
//
// Every layer, the public API included, is a single generic implementation
// parameterized by the scalar constraint (float32 | float64 | complex64 |
// complex128) — the paper's trees and DAGs never mention the arithmetic.
// From the bottom up:
//
//	internal/vec    — the Scalar constraint, the real/complex hooks
//	                  (Conj, Abs, RealPart, FromParts), and the tuned
//	                  vector primitives (unrolled Dot/Dotc/Axpy/Axpy2/
//	                  Scal/AddScaled, overflow-safe single-Sqrt Nrm2)
//	internal/kernel — the paper's six tile kernels (GEQRT, TSQRT, TTQRT,
//	                  UNMQR, TSMQR, TTMQR, as the pentagonal TPQRT/TPMQRT
//	                  generals) plus GEMM, one generic implementation with
//	                  conjugation fused through the vec hooks
//	internal/tile   — generic dense matrices, PLASMA tile layout, norms
//	internal/engine — the one Factorization[T]: DAG execution loop (task →
//	                  kernel dispatch with error reporting), ApplyQ/ApplyQH
//	                  replay, SolveLS, workspace pooling, tracing, and
//	                  the stream's merges of [A b] on the same loop
//	public API      — one QR[T] (FactorOf[T], FactorIntoOf[T]), one
//	                  Stream[T] (NewStreamOf[T]) and one Mat[T] (NewMat,
//	                  RandomMat and the *Of check helpers). Dense,
//	                  ZDense, Dense32 and CDense name Mat's four
//	                  instantiations; compat.go keeps the few float64
//	                  and complex128 shims (Factor, FactorInto,
//	                  FactorComplex, ZFactorInto) the benchmark calls
//
// The real/complex difference never forks the code: conjugation is the
// identity in the real domains and every hook compiles to straight-line
// code per instantiation, so the float64 kernels are as fast as the
// hand-written ones they replaced (see BENCH_kernels.json for the
// trajectory). The streaming subsystem's reduction core shares the same
// dispatch loop through the engine's Source interface.
//
// # Choosing a precision
//
// float64 is the default: ~1e-15 relative residuals, the paper's "double"
// domain. complex128 is the paper's "double complex" domain, whose 4×
// computation-to-communication ratio favours the TT algorithms most. The
// single-precision pair halves memory traffic and resident footprint —
// tiles stay cache-resident at twice the tile size — at ~1e-6 relative
// accuracy: factor a Mat[float32] or Mat[complex64] when throughput or
// footprint matters more than the last digits (preconditioning, sketching,
// streaming aggregation of noisy data, ML feature pipelines), and stay with
// the double domains for ill-conditioned least squares or when residuals
// near machine epsilon are the point. All four precisions pass the same
// agreement suite: the complex path reproduces the real path's R on
// real-valued data, and the 32-bit paths agree with their 64-bit siblings
// to single precision, across every parameter-free algorithm and both
// kernel families.
//
// # Autotuning
//
// The paper's central finding is that no single configuration wins
// everywhere: the best elimination tree, kernel family and tile size all
// depend on the matrix shape and the core count. AlgorithmAuto turns that
// finding into the default decision procedure:
//
//	f, err := tiledqr.Factor(a, tiledqr.Options{Algorithm: tiledqr.AlgorithmAuto})
//
// The library times the host's sequential kernels
// (GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR) at each candidate (tile size,
// inner block) a decision prices — tens of milliseconds of micro-benchmarks
// per point, the first time the process prices it — and keeps the times in
// process memory; nothing is written to disk, and concurrent first uses
// measure a point exactly once. Each Auto factorization then list-schedules
// the candidate task DAGs with the measured kernel durations at the
// execution width it will actually run at (falling back to the paper's
// closed-form roofline bounds for grids too large to simulate) and picks
// the predicted-fastest (algorithm, TT-vs-TS, nb, ib) tuple.
//
// Under AlgorithmAuto, TileSize = 0 and InnerBlock = 0 mean "choose for
// me"; setting either nonzero pins that dimension while the rest is still
// tuned, and the Kernels field is chosen by the tuner (an Auto stream merges
// triangles with TT kernels). Options.Resolve exposes the decision: it
// returns the concrete options an Auto factorization of that shape would use, which reproduce the Auto result bit for bit. Decisions
// are deterministic per (shape, width, precision) within a process, so
// FactorInto/Refactor serving fleets keep hitting the engine's plan/arena
// reuse path. `qrperf -tune` prints the full decision table with
// predicted-vs-measured error, and `make bench-gate` (run in CI) guards
// the calibration's foundation: it fails when any measured kernel series
// regresses beyond tolerance against the committed BENCH_kernels.json
// baseline.
//
// # Streaming (incremental) factorization
//
// Stream[T] factors a matrix whose rows arrive over time — the incremental
// mode of communication-avoiding TSQR. Each appended batch is tiled, in
// tiles two tile rows (2·nb) tall, where the TS kernels run faster per
// flop than on square ones, and merged into a resident n×n triangle along
// the paper's flat tree with TS kernels, each batch tile eliminated
// straight into the triangle, and scheduled by the same work-stealing
// runtime and critical-path priorities as a one-shot factorization:
//
//	s, _ := tiledqr.NewStreamOf[float64](nFeatures, tiledqr.Options{})
//	for batch, rhs := range observations {   // r×n rows + r×nrhs targets
//		s.AppendRHS(batch, rhs)
//	}
//	x, _ := s.SolveLS()  // LS fit over every row ever ingested
//
// One generic type serves all four precisions; NewStreamOf[complex128],
// NewStreamOf[float32] and NewStreamOf[complex64] are the same code.
//
// Use Factor when the matrix fits in memory and is factored once: it sees
// the whole matrix, so wide trailing updates amortize better and Q can be
// applied afterwards. Use a stream when rows keep arriving, the history is
// too large to hold, or rolling least-squares estimates are needed: memory
// stays O(n² + batch) — the triangle of [A b] and per-worker scratch; nothing
// scales with rows ingested (Footprint makes the bound observable, and a
// test asserts it). Appending r rows costs 2·r·n² flops regardless of how
// many rows came before; Q is never materialized, but the running
// least-squares residual is available as ResidualNorm.
//
// # Sliding windows, downdating and forgetting
//
// By default a stream's triangle aggregates every row ever ingested,
// irrevocably. Two Options fields change that for rolling estimation:
//
// Options.WindowRows = w keeps the stream equivalent to a QR of only the
// most recent w rows. The retained rows are a queue of blocks, and the
// stream keeps a reduction tree of triangle merges over it — TSQR over a
// sliding set, in the two-stack arrangement of sliding-window aggregation:
// a back triangle every append merges into as usual, and in front of it a
// stack of suffix triangles over the older blocks, checkpointed at least n
// rows apart. Evicting the oldest rows pops or shortens a leaf and drops
// the one suffix that covered it: no arithmetic. The first R, QTB, SolveLS
// or ResidualNorm after a change builds whatever suffixes are missing and
// merges the oldest one with the back triangle — one triangle-on-triangle
// merge, O(n³) where a read of a plain stream is O(n²) — and caches the
// result until the next append or eviction. Every retained row is merged
// at most twice (into the back, into a suffix; rows evicted between two
// reads only once), so a windowed append costs about one plain append plus
// one amortised merge, at every batch size — less for batches under a tile
// row, which wait in the history and merge a tile row at a time. Nothing is
// ever subtracted:
// every triangle served is a product of orthogonal merges of rows still
// retained, so the window is exactly as stable as a one-shot factorization
// of its rows — no breakdown test, no rebuild path, no drift after any
// number of slides — and the residual is the norm of a triangle merged
// up the tree, not ‖b‖² − ‖Qᵀb‖². Memory is the retained rows plus one
// triangle per n of them — at most about twice the rows — plus O(n²),
// observable via Footprint and asserted flat by the test suite after
// hundreds of batches. What the design does not suit is a window fed a row or two at a
// time and read after every append: each read then pays the O(n³) merge.
//
// Options.WindowRows = RetainAll keeps the full row history without
// automatic eviction, enabling explicit revocation: DowndateRows(k)
// removes the k oldest retained rows on demand (corrections, late
// deletions, GDPR-style erasure). With the default WindowRows = 0 no
// history is kept and DowndateRows reports a descriptive error.
//
// Options.Forget = λ (0 < λ ≤ 1) applies exponential forgetting: each
// append first scales the resident triangle (Qᵀb and residual included)
// by √λ, so a row appended k batches ago contributes with weight λᵏ — the
// classic RLS forgetting factor, giving smoothly decaying influence
// instead of (or in addition to) the window's hard cutoff. Stream.Forget
// applies one decay step manually for externally-clocked schedules.
//
// Ingestion throughput is benchmarked by BenchmarkStream*, cmd/qrstream
// (which exposes -window and -forget and reports the steady-state
// footprint) and, appends and reads together, by the stream_window
// workload of `go run ./bench`.
//
// # Runtime and throughput
//
// Execution happens on a persistent Runtime: one resident pool of worker
// goroutines that accepts the task DAGs of any number of concurrent
// factorizations, the way PLASMA's dynamic scheduler owns the cores for
// the life of the process. By default (Options.Runtime nil, Workers 0)
// every factorization and every stream merge
// shares the process-wide DefaultRuntime of GOMAXPROCS workers, so N
// concurrent callers never oversubscribe the machine with N pools.
// Admission across factorizations is weighted-fair — each job accumulates
// virtual time as its tasks execute and workers serve the furthest-behind
// job first (with a stickiness quantum for cache locality) — so one huge
// factorization cannot starve a fleet of small ones, while a lone job
// still gets every worker. Within a job, critical-path priorities order
// the tasks exactly as in a dedicated pool, and results are bit-identical
// to sequential execution. A kernel error or panic cancels that job's
// outstanding tasks promptly without touching other jobs.
//
// For a serving workload — many same-shaped problems at high QPS — pair
// the shared runtime with the reuse path:
//
//	rt := tiledqr.NewRuntime(0)            // or just use the default
//	defer rt.Close()
//	opt := tiledqr.Options{TileSize: 128, Runtime: rt}
//	f := &tiledqr.Factorization{}
//	for a := range problems {
//		if err := tiledqr.FactorInto(f, a, opt); err != nil { ... }
//		use(f.R())
//	}
//
// FactorInto (and its shape-pinned shorthand Refactor) reuses the tile
// arena — one contiguous allocation holding every tile payload and T
// factor — plus the task DAG and its execution plan whenever shape and
// structural options match, so steady-state refactorization performs O(1)
// allocations; kernel workspaces live with the runtime's workers (one
// grow-only buffer per precision each) and are shared by every job.
// Setting Options.Workers > 1 instead runs the call on the resident runtime
// of that width, started on first use and kept for the life of the process
// like the default one, so its workers and their scratch stay warm across
// calls (Workers == 1 is the deterministic sequential path on the calling
// goroutine). The small_fleet and tsqr_panel workloads
// of `go run ./bench` measure the fleet scenario and the reuse path.
//
// # Serving
//
// cmd/qrserve packages the fleet pattern above as a network service: an
// HTTP/JSON front end on one shared Runtime, with one-shot factor and
// least-squares endpoints and session-oriented streaming TSQR, all four
// precisions on the wire (complex data travels as interleaved re/im
// pairs). The server layers serving concerns
// over the runtime's weighted-fair admission: 429 + Retry-After
// backpressure when the runtime's task backlog or the request-body bytes
// in flight exceed their bounds, a read deadline on every request, and
// coalescing: solves that arrive while an identical
// design matrix is being factored share that factorization and a single
// multi-column SolveLS. On SIGTERM it drains gracefully — in-flight requests finish,
// new ones get 503, and Runtime.Drain quiesces the pool before exit.
// Runtime.Stats exposes the pool's worker count, ready-task backlog and
// in-flight job count for exactly this kind of supervision, and the
// TILEDQR_WORKERS environment variable overrides the default pool width
// wherever a worker count is left at zero. `make serve-smoke` runs the
// whole stack end to end. See the README's "QR as a service" section
// for the endpoint reference.
//
// # Distributed factorization
//
// cmd/qrdist scales the factorization past one process with the
// communication-avoiding algorithm (CAQR): the matrix is sharded row-wise
// across worker processes (qrdist -worker starts one per shard: itself
// with -connect) or in-process goroutines, and each worker is one node of
// a binomial TSQR reduction tree. A run is one pass: each worker factors
// its rows once and the tree carries W−1 triangles. A node is the
// streaming core. The coordinator streams every worker its shard at once
// in chunks of whole batch tiles, which the worker reads into one reused
// buffer and appends with their right-hand-side rows as they arrive. That
// leaves the node's aggregate — the n×n R, the top block of Qᵀb and the
// residual norm — into which it merges its children's aggregates with the
// same triangle-on-triangle merge streams use, until rank 0 holds the
// global aggregate, from which the coordinator solves the least-squares
// system and reports the residual ‖b − A·x‖_F. Only aggregates travel, one
// frame per tree edge: for tall shards the communication volume is O(n²)
// per worker against O(rows·n²) of local compute, which is the
// communication-avoiding trade. Frames are length-prefixed binary over
// plain TCP in all four precisions; shard chunks go from the caller's
// matrix to the worker's buffer without a pack or unpack copy, and
// aggregate buffers are pooled on both the send and receive paths.
// Cancellation (SIGTERM in the driver) or a failed worker closes every
// worker connection: the run ends promptly with an error, and the driver
// exits 1 once every worker has exited. The
// distributed R matches single-process Factor up to the usual row-phase
// ambiguity, and the residual the one-shot ‖b − A·x‖_F; `make dist-smoke`
// asserts that agreement against two real worker processes end to end.
// Shards shorter than n are rejected with a pointer back to single-node
// Factor. See the README's "Distributed CAQR" section for the topology
// diagram and sharding guidance.
//
// # Failure semantics
//
// Every public entry point takes or has a variant taking a
// context.Context (FactorOf, FactorIntoOf, RefactorCtx, SolveLSCtx,
// ApplyQCtx/ApplyQHCtx, AppendRowsCtx, AppendRHSCtx) and threads it
// through the DAG execution. On
// cancellation, in-flight kernel tasks run to completion (they are
// microseconds), queued tasks are dropped un-executed, and the call
// returns ctx.Err() promptly; concurrent factorizations sharing the
// runtime are unaffected and bit-identical. Contexts apply to one call
// and are never retained. A nil context means "never cancelled" — the
// methods without the Ctx suffix are exactly that.
//
// Failure is sticky but never silent. A Factorization whose last attempt
// failed — kernel error, panic (contained by the scheduler and converted
// to an error), cancellation, or health-check breakdown — refuses to
// serve results: Err reports the original cause, error-returning
// accessors (ApplyQ/ApplyQH/SolveLS) wrap it, and value-returning
// accessors (R, Q, ThinQ) panic with it rather than return half-factored
// tiles. The state is recoverable: the next successful
// Factor/FactorInto/Refactor rebuilds storage from scratch and clears it.
// A stream is different: a batch merge mutates the resident triangle in
// place, so an append that fails past validation poisons the stream
// permanently — Err, R, QTB, SolveLS, ResidualNorm and every later
// append return the original cause, and further appends are unsupported
// (replace the stream). Input validation failures (shape mismatches, and
// non-finite entries under CheckHealth) are detected before any retained
// state is touched and leave factorization and stream fully intact.
//
// Options.CheckHealth opts into numerical health checking: inputs
// containing NaN or Inf are rejected up front, and every kernel task
// fails fast when it writes a non-finite value into a tile — a NaN
// reflector or an overflow to Inf stops the DAG at the task that produced
// it instead of poisoning everything downstream. The scan is O(nb²) per
// O(nb³) task, a few percent; with CheckHealth off the happy path pays
// nothing.
//
// Runtime lifecycle is hardened for serving: Close is idempotent, waits
// for in-flight jobs, and later submissions fail with ErrRuntimeClosed —
// they never hang. Drain(ctx) is the graceful variant: admission stops
// (ErrRuntimeDraining) and it waits, bounded by ctx, for in-flight work.
//
// The failure paths are exercised by a chaos suite driven by a
// deterministic fault injector (internal/fault): injected kernel errors,
// panics, stalls and NaN poison, filtered by kernel kind, precision and
// match index. Operators can arm it via the TILEDQR_FAULT environment
// variable (e.g. "mode=panic;kind=GEQRT;prec=d;index=3") to rehearse
// failure handling in staging; when disarmed it costs one atomic load per
// task. `make chaos` runs the suite under the race detector and CI gates
// on it, alongside fuzz targets (`make fuzz-smoke`) that keep hostile
// options and adversarial matrices erroring descriptively instead of
// panicking.
//
// # Performance
//
// All four arithmetic domains run on one tuned core, internal/vec:
// unrolled, bounds-check-free Dot/Axpy/Scal/AddScaled primitives plus an
// overflow-safe single-Sqrt Nrm2 (the reflector norms take one Sqrt per
// column instead of one Hypot per element; sums of squares accumulate in
// float64 even for the 32-bit domains). Kernel inner loops are
// row-contiguous sweeps, and the block-reflector appliers tile their
// workspace to a fixed byte budget per domain so the updated block streams
// through cache once per pass.
//
// The hot primitives additionally exist as a hand-vectorized kernel family
// — AVX2/FMA assembly on amd64, NEON on arm64 — selected by CPU detection
// at startup, with the generic loops as the always-present fallback
// (build tag noasm compiles the assembly out; TILEDQR_SIMD=off disables it
// at startup). The block-reflector updates run every row of the reflector
// block, and the triangular T product, through a register-blocked packed
// micro-GEMM in the same family, which is where the bulk of the
// factorization's flops live. Its register tile is 4×8 in double (4×16 in
// single), or twice as wide on an amd64 host with AVX-512F, chosen once at
// startup by CPUID. In the real domains the micro-kernel reads
// its B operand in place and only A is packed; on an AVX2 host the
// double-precision factor kernels run 2–3× and the update kernels 3–4×
// faster than the generic loops. The complex domains run on the same real
// micro-kernels through the 1m method: complex operands are packed as real
// ones of twice the width, so one real product does exactly the complex
// product's flops, and the double-complex update kernels run 1.5–2.5×
// faster than the generic loops. The two families agree to rounding level
// (the vector code fuses multiply-adds, so results are not bit-identical
// across families — they are bit-identical for a fixed family), an
// agreement the test suite enforces per primitive and end to end across
// Factor, SolveLS and the streams in all four precisions. The autotuner
// calibrates each family separately and records which one scored each
// decision.
//
// The parallel runtime (internal/sched) executes the task DAG with
// per-worker deques plus work stealing. Ready tasks are ordered by
// critical-path priority — the longest weighted path to a DAG sink, using
// the paper's Table 1 kernel weights — so factor kernels on the critical
// path run ahead of trailing updates, the ASAP discipline of §2. A
// completing worker keeps its released successors (the tiles it just wrote
// are still in cache); idle workers steal low-priority leaves from
// victims. The input's conversion to tile layout is part of the DAG too:
// the first task to write each tile copies it in from the caller's matrix
// (or a stream's appended batch) just before its kernel, so copy-in runs on
// every worker and overlaps the first kernels instead of being a serial
// pass before them. Workers = 1 selects a deterministic sequential path. Each
// worker owns a preallocated kernel workspace and Q-application scratch is
// pooled per precision at package level (never inside a factorization, so a
// dropped factorization is garbage at the next collection), so steady-state
// factorization does no per-task allocation.
//
// Solve cost model: SolveLS applies Qᴴ to b and back-substitutes. For one
// right-hand side that is ≈ 4·m·n flops — every entry of the stored
// reflectors is read twice, once per sweep — against ≈ 2·m·n² for Factor,
// so the solve should cost a fraction 2/n of the factorization in flops and
// well under 10% of Factor's wall time at the paper's p = 40, q = 4 (at
// 2560×256, nb = 64: ≈ 1.2 ms against ≈ 21 ms). Right-hand sides narrower
// than the packed GEMM's minimum width (fewer than 4 columns) take a vector
// form of the appliers that sweeps along the reflectors' contiguous rows;
// 4 columns and up take the block-reflector form, which reaches GEMM speed
// at tile width but is still short-vector bound below ~16 columns.
// `go test -bench SolveLS .` reports ms/op and GFLOP/s at 1, 8 and 64
// right-hand sides.
//
// To benchmark: `go test -bench 'Figure4|Figure5' .` reports per-kernel
// GFLOP/s (the paper's Figures 4–5) in all four precisions, `go test
// -bench Table .` the end-to-end experiments, and `make bench` records the
// kernel figures for every precision in BENCH_kernels.json alongside the
// seed baseline, tracking the performance trajectory across revisions.
package tiledqr
