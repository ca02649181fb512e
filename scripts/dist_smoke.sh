#!/bin/sh
# dist_smoke.sh — end-to-end smoke for the distributed CAQR stack: build
# qrdist, factor a 2048×256 matrix across a coordinator and 2 worker
# processes (qrdist -worker re-executes itself with -connect) on localhost
# with -verify (R, x and the residual must agree with single-process
# Factor to 1e-12), then SIGTERM a long multi-round run and require a
# prompt stop: qrdist exits within 5 s, names the interruption, and leaves
# no worker process behind.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
dist_pid=""
cleanup() {
    [ -n "$dist_pid" ] && kill "$dist_pid" 2>/dev/null || true
    pkill -KILL -f "$tmp/qrdist" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "dist-smoke: building qrdist"
$GO build -o "$tmp/qrdist" ./cmd/qrdist

echo "dist-smoke: 2048x256 over coordinator + 2 worker processes, verified"
"$tmp/qrdist" -m 2048 -n 256 -workers 2 -rounds 2 -verify \
    -worker | tee "$tmp/run.log"
grep -q "verify: R, x and residual agree" "$tmp/run.log" || {
    echo "dist-smoke: verification marker missing from output" >&2
    exit 1
}

echo "dist-smoke: SIGTERM of a long multi-round run"
"$tmp/qrdist" -m 1024 -n 128 -nb 64 -workers 2 -rounds 100000 \
    -worker >"$tmp/term.log" 2>&1 &
dist_pid=$!
sleep 1
kill -TERM "$dist_pid"
# Watchdog: a qrdist still running 5 s after the signal is killed and fails
# the smoke.
( sleep 5; kill -0 "$dist_pid" && touch "$tmp/hung" && kill -KILL "$dist_pid" ) 2>/dev/null &
watchdog=$!
status=0
wait "$dist_pid" || status=$?
dist_pid=""
pkill -P "$watchdog" 2>/dev/null || true
{ kill "$watchdog" && wait "$watchdog"; } 2>/dev/null || true
if [ -e "$tmp/hung" ]; then
    echo "dist-smoke: qrdist still running 5 s after SIGTERM" >&2
    cat "$tmp/term.log" >&2
    exit 1
fi
if [ "$status" -eq 0 ]; then
    echo "dist-smoke: qrdist exited 0 after SIGTERM, want nonzero" >&2
    exit 1
fi
if ! grep -q "interrupted by signal" "$tmp/term.log"; then
    echo "dist-smoke: interruption message missing" >&2
    cat "$tmp/term.log" >&2
    exit 1
fi
if pgrep -f "$tmp/qrdist" >/dev/null; then
    echo "dist-smoke: worker processes outlived qrdist:" >&2
    pgrep -af "$tmp/qrdist" >&2
    exit 1
fi
echo "dist-smoke: ok (verified result; SIGTERM stopped the run within 5 s, exit $status, no worker left)"
