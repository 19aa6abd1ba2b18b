#!/bin/sh
# Multi-process peer smoke: run the churning transitive-closure workload as a
# two-process cluster over loopback TCP and require its RESULT line to be
# bit-identical to the single-process run's. A durable single-process run
# finished early and resumed with -recover must restore exactly where it
# ended and reach the same RESULT. Then SIGKILL one peer mid-run and require
# the survivor to exit non-zero with a typed peer-loss error within a bounded
# time.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT
bin="$tmp/kpg"
go build -o "$bin" ./cmd/kpg

# Flag validation rejects bad combinations up front.
for bad in "-process 1 serve" \
    "-peers 127.0.0.1:7601,127.0.0.1:7602 -process 2 serve" \
    "-peers 127.0.0.1:7601,,127.0.0.1:7602 serve" \
    "-workers 3 -peers 127.0.0.1:7601,127.0.0.1:7602 serve" \
    "-peers 127.0.0.1:7601,127.0.0.1:7602 -listen 127.0.0.1:0 serve" \
    "-peers 127.0.0.1:7601,127.0.0.1:7602 -spill-bytes 1000000 serve" \
    "-peers 127.0.0.1:7601,127.0.0.1:7602 -peer-grace -1s serve" \
    "-peers 127.0.0.1:7601,127.0.0.1:7602 -max-lag 4 serve" \
    "-peer-grace 5s serve"; do
    if $bin $bad >/dev/null 2>&1; then
        echo "FAIL: 'kpg $bad' was accepted" >&2
        exit 1
    fi
done
echo "flag validation OK"

workload="-workers 4 -nodes 1024 -churn 256 -rounds 10"

# Reference: a single-process run (P=1 peer list exercises the same code path
# up to the mesh, without TCP).
$bin $workload -peers 127.0.0.1:7611 -process 0 serve > "$tmp/single.out" 2>&1
single="$(grep '^RESULT ' "$tmp/single.out")"
[ -n "$single" ] || { echo "FAIL: no RESULT from single-process run" >&2; cat "$tmp/single.out" >&2; exit 1; }
echo "single-process: $single"

# Two processes, same workload: rank 1 in the background, rank 0 in the
# foreground prints the gathered RESULT.
peers="127.0.0.1:7611,127.0.0.1:7612"
$bin $workload -peers "$peers" -process 1 serve > "$tmp/peer1.out" 2>&1 &
p1=$!
pids="$p1"
$bin $workload -peers "$peers" -process 0 serve > "$tmp/peer0.out" 2>&1
wait "$p1"
pids=""
double="$(grep '^RESULT ' "$tmp/peer0.out")"
[ -n "$double" ] || { echo "FAIL: no RESULT from two-process run" >&2; cat "$tmp/peer0.out" >&2; exit 1; }
echo "two-process:    $double"
if [ "$single" != "$double" ]; then
    echo "FAIL: two-process RESULT differs from single-process" >&2
    exit 1
fi
if grep -q '^RESULT ' "$tmp/peer1.out"; then
    echo "FAIL: non-zero rank printed a RESULT line" >&2
    cat "$tmp/peer1.out" >&2
    exit 1
fi
echo "two-process RESULT bit-identical"

# Resume a finished durable run: reading the RESULT must seal nothing, so a
# run finished at 6 rounds and resumed with -recover to 10 restores exactly
# epoch 6 and ends with the uninterrupted 10-round RESULT.
$bin -workers 4 -nodes 1024 -churn 256 -rounds 6 -peers 127.0.0.1:7611 -process 0 \
    -data-dir "$tmp/resume" serve > "$tmp/resume1.out" 2>&1
$bin $workload -peers 127.0.0.1:7611 -process 0 -data-dir "$tmp/resume" -recover serve \
    > "$tmp/resume2.out" 2>&1
rec=$(sed -n 's/^recovered "edges" through epoch \([0-9][0-9]*\).*/\1/p' "$tmp/resume2.out")
resumed="$(grep '^RESULT ' "$tmp/resume2.out" || true)"
if [ "$rec" != 6 ] || [ "$resumed" != "$single" ]; then
    echo "FAIL: finished at 6 rounds, resumed to 10: recovered epoch '$rec' (want 6), '$resumed' (want '$single')" >&2
    cat "$tmp/resume2.out" >&2
    exit 1
fi
echo "resumed finished run: recovered epoch 6, RESULT matches"

# Peer loss under fail-stop (-peer-grace 0, the default, made explicit here):
# a long run, SIGKILL rank 1 once the mesh is up, and the survivor must exit
# non-zero with the typed peer-loss error within a bounded time. The
# quiesce-and-rejoin path behind a non-zero grace is covered by
# scripts/chaos_smoke.sh.
peers="127.0.0.1:7613,127.0.0.1:7614"
long="-workers 4 -nodes 4096 -churn 512 -rounds 2000 -peer-grace 0s"
$bin $long -peers "$peers" -process 1 serve > "$tmp/kill1.out" 2>&1 &
k1=$!
$bin $long -peers "$peers" -process 0 serve > "$tmp/kill0.out" 2>&1 &
k0=$!
pids="$k1 $k0"
i=0
until grep -q 'connecting mesh' "$tmp/kill0.out" 2>/dev/null &&
    grep -q 'connecting mesh' "$tmp/kill1.out" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: peers never reached the mesh" >&2
        cat "$tmp/kill0.out" "$tmp/kill1.out" >&2
        exit 1
    fi
    sleep 0.02
done
sleep 0.3
kill -9 "$k1" 2>/dev/null || true
wait "$k1" 2>/dev/null || true
echo "killed rank 1"

# Bounded wait for the survivor: peer loss must surface well under a minute.
i=0
while kill -0 "$k0" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "FAIL: survivor still running 30s after peer SIGKILL" >&2
        cat "$tmp/kill0.out" >&2
        exit 1
    fi
    sleep 0.05
done
rc=0
wait "$k0" || rc=$?
pids=""
if [ "$rc" -eq 0 ]; then
    echo "FAIL: survivor exited 0 after losing its peer" >&2
    cat "$tmp/kill0.out" >&2
    exit 1
fi
if ! grep -q 'peer loss' "$tmp/kill0.out"; then
    echo "FAIL: survivor exit carried no typed peer-loss error" >&2
    cat "$tmp/kill0.out" >&2
    exit 1
fi
echo "survivor exited $rc with typed peer-loss error"
echo "OK: peer smoke passed"
