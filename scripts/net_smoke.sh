#!/bin/sh
# Network front-end smoke: start `kpg serve -listen`, drive it end to end
# with `kpg client` (install, update, advance, watch), SIGKILL a watcher
# mid-stream, and require that the server keeps serving — epochs still seal,
# and a fresh watcher sees exactly the expected consistent counts. A watcher
# attached before `client uninstall` must see its stream end, and on a
# `-sub-lag 1` server a watcher must pass through a resync and still reach
# the expected counts.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
srv_pid=""
lag_pid=""
cleanup() {
    [ -n "$srv_pid" ] && kill -9 "$srv_pid" 2>/dev/null || true
    [ -n "$lag_pid" ] && kill -9 "$lag_pid" 2>/dev/null || true
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

# listen_addr PID OUT waits for the server PID logging to OUT to listen, and
# prints its address.
listen_addr() {
    a=""
    i=0
    while [ -z "$a" ]; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "FAIL: server never started listening" >&2
            cat "$2" >&2
            exit 1
        fi
        if ! kill -0 "$1" 2>/dev/null; then
            echo "FAIL: server exited at startup" >&2
            cat "$2" >&2
            exit 1
        fi
        a="$(sed -n 's/.*serving [0-9]* workers on \(.*\)/\1/p' "$2")"
        sleep 0.02
    done
    echo "$a"
}

# wait_for PATTERN FILE WHAT waits until a watcher's output shows PATTERN.
wait_for() {
    i=0
    until grep -q "$1" "$2" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "FAIL: $3" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.02
    done
}

# wait_exit PID WHAT waits for a background watcher to exit on its own.
wait_exit() {
    i=0
    while kill -0 "$1" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 500 ]; then
            echo "FAIL: $2" >&2
            exit 1
        fi
        sleep 0.02
    done
    wait "$1"
}

$bin -workers 2 -listen 127.0.0.1:0 serve > "$tmp/serve.out" 2>&1 &
srv_pid=$!
addr="$(listen_addr "$srv_pid" "$tmp/serve.out")"
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
wait_for 'snapshot\|delta' "$tmp/watch1.out" "watcher never received its snapshot"
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

# Uninstall ends streams: a watcher attached before it sees its stream end
# (it would otherwise stream until epoch 1000).
kpgc -until 1000 client watch counts > "$tmp/watch3.out" 2>&1 &
w3=$!
wait_for 'snapshot' "$tmp/watch3.out" "watcher never received its snapshot"
kpgc client uninstall counts
wait_exit "$w3" "uninstall did not end the watcher's stream"
if ! grep -qx 'counts: stream ended' "$tmp/watch3.out"; then
    echo "FAIL: watcher exited without its stream ending" >&2
    cat "$tmp/watch3.out" >&2
    exit 1
fi
echo "uninstall ended the watcher's stream"

# The server shuts down cleanly on SIGTERM.
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

# A subscriber bound to one pending delta: an epoch of ten changed counts
# drops its feed, and it resyncs onto the consolidated counts.
$bin -workers 2 -sub-lag 1 -listen 127.0.0.1:0 serve > "$tmp/lag.out" 2>&1 &
lag_pid=$!
addr="$(listen_addr "$lag_pid" "$tmp/lag.out")"
kpgc client install counts 'counts(x, count(y)) :- edges(x, y).' >/dev/null
kpgc client update edges 1:10 2:20 3:30
kpgc client advance edges
kpgc client sync edges
kpgc -until 2 client watch counts > "$tmp/watch4.out" 2>&1 &
w4=$!
wait_for 'snapshot' "$tmp/watch4.out" "lagged watcher never received its snapshot"
kpgc client update edges 1:101 2:102 3:103 4:104 5:105 6:106 7:107 8:108 9:109 10:110
kpgc client advance edges
kpgc client update edges 11:111
kpgc client advance edges
kpgc client sync edges
wait_exit "$w4" "lagged watcher never reached epoch 2"
if ! grep -q '^counts: resync at epoch' "$tmp/watch4.out"; then
    echo "FAIL: a bound of one delta forced no resync" >&2
    cat "$tmp/watch4.out" >&2
    exit 1
fi
want="$tmp/want4"
: > "$want"
for k in 1 2 3; do echo "STATE counts $k 2 1" >> "$want"; done
for k in 4 5 6 7 8 9 10 11; do echo "STATE counts $k 1 1" >> "$want"; done
if ! grep '^STATE ' "$tmp/watch4.out" | diff "$want" - >&2; then
    echo "FAIL: the resynced watcher's counts differ from the expected" >&2
    exit 1
fi
echo "lagged watcher resynced onto consistent counts"
kill -TERM "$lag_pid"
wait "$lag_pid" 2>/dev/null || true
lag_pid=""
echo "OK: network front-end smoke passed"
