#!/bin/sh
# serve_smoke.sh — end-to-end smoke for the QR-as-a-service stack. The load
# half is the benchmark's serve_mix workload for 2 s: it builds and spawns
# its own qrserve, drives the seeded factor/solve/stream-rows mix over
# keep-alive connections, and exits nonzero if any operation fails or the
# last result fails its accuracy check. The drain half starts a qrserve of
# its own, checks that it answers the README's 3×2 solve with 200, then
# SIGTERMs it and requires a graceful drain (503 during the grace window,
# "drained cleanly" in the log, exit code 0). Run from the repository root.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "serve-smoke: serve_mix load (go run ./bench, 2 s)"
$GO run ./bench -workload serve_mix -seconds 2 -trace 0

echo "serve-smoke: building qrserve"
$GO build -o "$tmp/qrserve" ./cmd/qrserve

"$tmp/qrserve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -drain-grace 2s \
    >"$tmp/serve.log" 2>&1 &
serve_pid=$!

# The server writes its resolved address once the listener is up.
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never wrote its address file" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done
addr=$(cat "$tmp/addr")
echo "serve-smoke: qrserve listening on $addr"

if command -v curl >/dev/null 2>&1; then
    code=$(curl -s -o "$tmp/solve.json" -w '%{http_code}' "http://$addr/v1/solve" -d '{
      "precision": "d",
      "matrix": {"rows": 3, "cols": 2, "data": [1,0, 1,1, 1,2]},
      "rhs":    {"rows": 3, "cols": 1, "data": [1, 2, 3]}
    }' || echo unreachable)
    if [ "$code" != "200" ]; then
        echo "serve-smoke: the README's solve returned $code, want 200" >&2
        cat "$tmp/solve.json" "$tmp/serve.log" >&2
        exit 1
    fi
    echo "serve-smoke: the README's solve answered 200"
fi

echo "serve-smoke: draining (SIGTERM)"
kill -TERM "$serve_pid"

# During the drain-grace window the server still answers — with 503.
if command -v curl >/dev/null 2>&1; then
    sleep 0.5
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz" || echo unreachable)
    if [ "$code" != "503" ]; then
        echo "serve-smoke: healthz during drain grace returned $code, want 503" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    echo "serve-smoke: healthz answered 503 during the drain grace window"
fi

if ! wait "$serve_pid"; then
    echo "serve-smoke: qrserve exited nonzero after SIGTERM" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
serve_pid=""
if ! grep -q "drained cleanly" "$tmp/serve.log"; then
    echo "serve-smoke: server log is missing the clean-drain marker" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
echo "serve-smoke: ok (serve_mix with 0 failed operations, clean drain)"
