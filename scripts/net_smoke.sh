#!/bin/sh
# Network front-end smoke: start `kpg serve -listen`, drive it end to end
# with `kpg client` (install, update, advance, watch), SIGKILL a watcher
# mid-stream, and require that the server keeps serving — epochs still seal,
# and a fresh watcher sees exactly the expected consistent counts.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
srv_pid=""
cleanup() {
    [ -n "$srv_pid" ] && kill -9 "$srv_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
bin="$tmp/kpg"
go build -o "$bin" ./cmd/kpg

# Flag validation rejects bad combinations up front.
for bad in "-recover serve" "-checkpoint-every -1 -data-dir $tmp/d serve" "-listen 127.0.0.1:0 -rounds 3 serve" \
    "-fsync serve" "-data-dir $tmp/d -group-commit-ms 5 serve" "-checkpoint-bytes 1024 serve" "-sub-lag 100 serve"; do
    if $bin $bad >/dev/null 2>&1; then
        echo "FAIL: 'kpg $bad' was accepted" >&2
        exit 1
    fi
done
echo "flag validation OK"

$bin -workers 2 -listen 127.0.0.1:0 serve > "$tmp/serve.out" 2>&1 &
srv_pid=$!
addr=""
i=0
while [ -z "$addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: server never started listening" >&2
        cat "$tmp/serve.out" >&2
        exit 1
    fi
    if ! kill -0 "$srv_pid" 2>/dev/null; then
        echo "FAIL: server exited at startup" >&2
        cat "$tmp/serve.out" >&2
        exit 1
    fi
    addr="$(sed -n 's/.*serving [0-9]* workers on \(.*\)/\1/p' "$tmp/serve.out")"
    sleep 0.02
done
echo "server on $addr"
kpgc() { $bin -addr "$addr" "$@"; }

kpgc client install counts 'counts(x, count(y)) :- edges(x, y).'
# The client compiled that Datalog and shipped a plan; the listing must still
# show the text exactly as typed.
if ! kpgc client list | grep -qxF 'query counts = counts(x, count(y)) :- edges(x, y).'; then
    echo "FAIL: listing does not show the query text as typed" >&2
    kpgc client list >&2
    exit 1
fi
kpgc client update edges 1:10 2:20 3:30
kpgc client advance edges
kpgc client sync edges

# A watcher streams with no exit epoch; SIGKILL it mid-stream.
kpgc -until 0 client watch counts > "$tmp/watch1.out" 2>&1 &
w1=$!
i=0
until grep -q 'snapshot\|delta' "$tmp/watch1.out" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: watcher never received its snapshot" >&2
        cat "$tmp/watch1.out" >&2
        exit 1
    fi
    sleep 0.02
done
kill -9 "$w1" 2>/dev/null
wait "$w1" 2>/dev/null || true
echo "killed watcher mid-stream"

# The epoch cycle must keep turning: more updates seal and sync fine.
kpgc client update edges 1:11 4:40
kpgc client advance edges
kpgc client sync edges
echo "epoch cycle survived the kill"

# A fresh watcher sees the consistent accumulated counts:
# key 1 -> 2 edges, keys 2,3,4 -> 1 edge each.
kpgc -until 1 client watch counts > "$tmp/watch2.out" 2>&1
for want in "STATE counts 1 2 1" "STATE counts 2 1 1" "STATE counts 3 1 1" "STATE counts 4 1 1"; do
    if ! grep -qx "$want" "$tmp/watch2.out"; then
        echo "FAIL: fresh watcher missing '$want'" >&2
        cat "$tmp/watch2.out" >&2
        exit 1
    fi
done
if [ "$(grep -c '^STATE ' "$tmp/watch2.out")" -ne 4 ]; then
    echo "FAIL: fresh watcher saw unexpected STATE lines" >&2
    cat "$tmp/watch2.out" >&2
    exit 1
fi
echo "fresh watcher state consistent"

# Uninstall ends streams; the server shuts down cleanly on SIGTERM.
kpgc client uninstall counts
kill -TERM "$srv_pid"
i=0
while kill -0 "$srv_pid" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: server did not exit on SIGTERM" >&2
        exit 1
    fi
    sleep 0.02
done
srv_pid=""
echo "OK: network front-end smoke passed"
