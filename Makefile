# Build/test/benchmark entry points for the tiledqr reproduction.

GO ?= go

.PHONY: all build test test-noasm race vet fmt-check lint loc bench bench-e2e bench-smoke bench-gate tune chaos fault-smoke fuzz-smoke serve-smoke dist-smoke clean

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: fmt-check vet

test:
	$(GO) test ./...

# loc prints the non-test Go line count per top-level directory (bench/, the
# benchmark harness, excluded) — the figure CHANGES.md reports for
# simplification PRs, so it is reproducible.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, part, "/"); d = (n > 2) ? part[2] : "."; s[d] += $$1; t += $$1 } \
		END { for (d in s) printf "%8d  %s\n", s[d], d; printf "%8d  total\n", t }' | sort -k2

# test-noasm proves the pure-Go fallback family: once with the assembly
# compiled out entirely and once with the binary intact but the vector
# backend disabled at startup. Both passes include internal/kernel's panel
# conformance table (TestPanelConformance), which is what holds the generic
# family's column-contiguous panel path to the ε-scaled bounds. The second
# pass runs with -count=1: internal/vec reads TILEDQR_SIMD in an init, before
# the test log records the environment, so the test cache does not key on it
# and would replay a SIMD-on result.
test-noasm:
	$(GO) build -tags noasm ./...
	$(GO) test -tags noasm ./...
	TILEDQR_SIMD=off $(GO) test -count=1 ./...

# race runs every package under the race detector — including
# internal/stream's retention suite (windows, downdates and forgetting
# against one-shot factorizations, four precisions × two kernel families).
race:
	$(GO) test -race ./...

# chaos runs the fault-tolerance suite under the race detector, twice:
# deterministic fault injection (error/panic/stall/NaN-poison) with
# bit-identical bystander jobs, context cancellation promptness, sticky
# factorization/stream failure states, CheckHealth validation, and the
# runtime lifecycle (closed-submit, double Close, deadline-bounded Drain)
# with hand-rolled goroutine-leak checks — and the sliding-window drift
# test at its -short length (10³ slides over an ill-conditioned window).
chaos:
	$(GO) test -race -count=2 -run 'TestChaos|TestCancel|TestRuntimeLifecycle|TestSticky|TestStream|TestCheckHealth' .
	$(GO) test -race -count=2 ./internal/fault/ ./internal/sched/
	$(GO) test -race -short -run 'TestWindowDrift' ./internal/stream/

# fault-smoke proves the CLI failure path end to end: with a fault armed
# through TILEDQR_FAULT, qrstream must exit 1 carrying the injected error
# on stderr — and must not dump a panic stack trace.
fault-smoke:
	@out=$$(TILEDQR_FAULT="mode=error;index=0" $(GO) run ./cmd/qrstream -n 96 -nb 32 -batch 64 -batches 2 2>&1); code=$$?; \
	echo "$$out"; \
	if [ $$code -ne 1 ]; then echo "fault-smoke: want exit code 1, got $$code"; exit 1; fi; \
	echo "$$out" | grep -q "fault injection" || { echo "fault-smoke: injected error missing from output"; exit 1; }; \
	if echo "$$out" | grep -q "^goroutine "; then echo "fault-smoke: panic stack trace in output"; exit 1; fi; \
	echo "fault-smoke: ok (exit 1, clean error, no panic)"

# fuzz-smoke briefly runs the fuzz targets (hostile options, adversarial
# matrices with NaN/Inf/degenerate shapes, wire frames, and qrserve request
# bodies read by its decoder and by encoding/json side by side) — the
# no-panic contract of the public API and the accept/reject contract of the
# service. Seed corpora live under testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOptionsValidate -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzFactor -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzVecSIMD -fuzztime $(FUZZTIME) ./internal/vec/
	$(GO) test -run '^$$' -fuzz FuzzTileFrame -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz FuzzRequestBody -fuzztime $(FUZZTIME) ./internal/serve/

# bench measures every sequential kernel in all four precisions (double,
# double complex, single, single complex, at the benchmark shape
# nb=128/ib=32) and under each vec family, and records the GFLOP/s
# trajectory in BENCH_kernels.json. The file's "baseline" object (seed
# figures) is preserved across regenerations, so the float64/complex128
# maps stay comparable to the pre-generic numbers. Whole operations —
# factorizations, stream appends, served requests, distributed rounds — are
# bench-e2e's.
bench:
	$(GO) run ./cmd/qrperf -kernels-json BENCH_kernels.json

# bench-e2e runs the repository benchmark declared in BENCHMARK.json: every
# workload end to end with tracing off, then the traced per-layer pass;
# results land in bench/out/results.json (see bench/README.md).
bench-e2e:
	$(GO) run ./bench

# bench-gate is the benchmark-regression gate CI runs on every PR: quickly
# re-measure the kernel GFLOP/s series and fail if any of them regressed
# more than TOLERANCE percent below the committed BENCH_kernels.json
# baseline. The default tolerance is sized for same-host
# runs; CI passes a more generous one for hosted-runner drift. A single
# failing pass is re-measured once before the gate fails for real: a
# noisy-neighbor blip on a shared runner trips one sample, a genuine
# regression trips both. The tripped series (with old/new figures) are
# printed by -compare on each failing pass.
TOLERANCE ?= 25
bench-gate:
	@run_gate() { \
		$(GO) run ./cmd/qrperf -kernels-json bench-gate.json -quick && \
		$(GO) run ./cmd/qrperf -compare BENCH_kernels.json bench-gate.json -tolerance $(TOLERANCE); \
	}; \
	if run_gate; then exit 0; fi; \
	echo "bench-gate: first pass tripped (series above); re-measuring once to rule out host noise"; \
	run_gate || { echo "bench-gate: regression confirmed on the retry"; exit 1; }

# tune prints the autotuner's decision table: what AlgorithmAuto picks per
# shape on this host, with predicted and (-measure) measured times.
tune:
	$(GO) run ./cmd/qrperf -tune -measure

# bench-smoke is the CI-sized benchmark run: one iteration of the kernel
# (the paper's Figures 4 and 5, and BenchmarkKernels' tile kernels at every
# tile size it covers), least-squares solve, streaming and served-request
# (body decode, whole solve handler) figures, a tiny qrstream ingestion with verification (plain and
# sliding-window/forgetting modes), a traced complex qrfactor run that
# must print its Gantt chart, and the paper's tables (all but banded's 4 s
# of exhaustive search; cmd/qrperf's tests hold them to the paper's numbers)
# with one tile size of Figure 5, to prove the harnesses still work; then it
# runs every program under examples/ (calibration off, so the autotune
# example writes no cache file), failing on any nonzero exit. CI runs this
# target; it keeps no copy of the commands.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure4|Figure5KernelsDouble$$|^BenchmarkKernels$$|^BenchmarkSolveLS$$|StreamAppendDouble$$|^BenchmarkDecodeBody$$|^BenchmarkHandleSolve$$' -benchtime 1x ./...
	$(GO) run ./cmd/qrstream -n 96 -nb 32 -batch 64 -batches 6 -rhs 1 -verify
	$(GO) run ./cmd/qrstream -n 96 -nb 32 -batch 64 -batches 8 -rhs 1 -window 192 -forget 0.99 -verify
	$(GO) run ./cmd/qrstream -n 100 -nb 32 -rhs 3 -verify
	$(GO) run ./cmd/qrfactor -m 300 -n 100 -nb 50 -workers 2 -complex -gantt | grep '^w0 '
	for e in table2 table3 table4a table4b table5 grasap; do $(GO) run ./cmd/qrperf -experiment $$e || exit 1; done
	$(GO) run ./cmd/qrperf -experiment fig5 -sizes 128
	for e in examples/*/; do echo "example $$e"; TILEDQR_CALIBRATION=off $(GO) run ./$$e > /dev/null || exit 1; done

# serve-smoke proves the QR-as-a-service stack end to end (~10–15 s): 2 s of
# the benchmark's serve_mix workload against a spawned qrserve (it exits
# nonzero on any failed request), then a live qrserve must answer a solve,
# and after SIGTERM drain gracefully — in-flight requests finish, new ones
# get 503, and the server logs "drained cleanly" before exiting 0.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# dist-smoke proves the distributed CAQR stack end to end: build qrdist,
# factor 2048×256 across a coordinator and 2 worker processes (qrdist
# -worker re-executes itself with -connect) with -verify (R and x must match single-process Factor), then
# SIGTERM a long multi-round run and assert a prompt stop — qrdist exits
# nonzero within 5 s, names the interruption, and no worker process outlives it.
dist-smoke:
	GO="$(GO)" sh scripts/dist_smoke.sh

clean:
	$(GO) clean ./...
