#!/bin/sh
# dist_smoke.sh — end-to-end smoke for the distributed CAQR stack: build
# qrdist, factor a 2048×256 matrix across a coordinator and 2 worker
# processes (qrdist -worker re-executes itself with -connect) on localhost
# with -verify (R and x must agree with single-process Factor to 1e-12),
# then run a long multi-round job, SIGTERM the driver mid-flight, and
# require a coordinated drain ("drained cleanly", exit code 0).
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
dist_pid=""
cleanup() {
    [ -n "$dist_pid" ] && kill "$dist_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "dist-smoke: building qrdist"
$GO build -o "$tmp/qrdist" ./cmd/qrdist

echo "dist-smoke: 2048x256 over coordinator + 2 worker processes, verified"
"$tmp/qrdist" -m 2048 -n 256 -workers 2 -rounds 2 -verify \
    -worker | tee "$tmp/run.log"
grep -q "verify: R and x agree" "$tmp/run.log" || {
    echo "dist-smoke: verification marker missing from output" >&2
    exit 1
}

echo "dist-smoke: SIGTERM drain of a long multi-round run"
"$tmp/qrdist" -m 1024 -n 128 -nb 64 -workers 2 -rounds 100000 \
    -worker >"$tmp/drain.log" 2>&1 &
dist_pid=$!
sleep 1
kill -TERM "$dist_pid"
if ! wait "$dist_pid"; then
    echo "dist-smoke: qrdist exited nonzero after SIGTERM" >&2
    cat "$tmp/drain.log" >&2
    exit 1
fi
dist_pid=""
if ! grep -q "drained cleanly" "$tmp/drain.log"; then
    echo "dist-smoke: clean-drain marker missing" >&2
    cat "$tmp/drain.log" >&2
    exit 1
fi
echo "dist-smoke: ok (verified result, clean SIGTERM drain, exit 0)"
