#!/bin/sh
# Crash-recovery smoke: SIGKILL a durable `kpg serve -data-dir` (the
# one-process cluster scenario) mid-stream, restart it with -recover, and
# require the final RESULT line (an order-independent count + checksum of the
# transitive closure over the served edges) to equal an uninterrupted run's.
# Also asserts the restart actually resumed from the batch log (recovered
# epoch >= 1) rather than replaying from scratch. -nodes is large enough that
# the closure stays far from complete in every component, so a lost or
# doubled round changes it.
#
# Three crash legs share the harness:
#   default       buffered appends (no fsync), the original coverage;
#   group-commit  -fsync -group-commit-ms 5, so the SIGKILL lands between
#                 group fsyncs — the process dies with appends the committer
#                 has not yet synced, and recovery must still converge (the
#                 page cache survives a process crash; group commit only
#                 widens the machine-crash window, never the process one);
#   spill         -spill-bytes 2048, so maintenance merges continuously
#                 evict runs to block files and the SIGKILL lands with
#                 spilled runs on disk, most of them unreferenced by the
#                 last manifest. Recovery must converge to the exact RESULT
#                 and leave zero orphans: the final `SPILL files=N refs=M`
#                 line must have files == refs > 0, and the on-disk *.blk
#                 census must equal N.
#
# A fourth leg needs no kill: a run that finishes cleanly at 150 rounds is
# resumed with -recover to the full 400. Reporting the RESULT is a read; it
# must leave the log where the last round left it (recovered epoch == 150
# exactly), or the resumed run starts a round late and serves other answers.
#
# "sealed epoch N" prints on completion, not submission, so the kill point
# guarantees epoch N's batches are in the log before the signal lands.
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/kpg"
go build -o "$bin" ./cmd/kpg

run="-workers 2 -nodes 16000 -churn 4000 -rounds 400"

# leg <name> <extra flags...>: reference run, crashy run, recovery, compare.
leg() {
    name="$1"; shift
    dir="$tmp/$name"

    # Uninterrupted reference run.
    $bin $run "$@" -data-dir "$dir/a" serve > "$dir.a.out" 2>&1
    grep '^RESULT' "$dir.a.out" > "$dir.a.result"

    # Crashy run: SIGKILL once epoch 8 has completed, well before the final
    # round.
    $bin $run "$@" -data-dir "$dir/b" serve > "$dir.b1.out" 2>&1 &
    pid=$!
    i=0
    until grep -q '^sealed epoch 8$' "$dir.b1.out" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 600 ]; then
            echo "FAIL($name): server never sealed epoch 8" >&2
            cat "$dir.b1.out" >&2
            kill -9 "$pid" 2>/dev/null || true
            exit 1
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL($name): server exited before the kill" >&2
            cat "$dir.b1.out" >&2
            exit 1
        fi
        sleep 0.02
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    echo "$name: killed -9 after: $(tail -n 1 "$dir.b1.out")"

    # The spill leg is only meaningful if the kill actually left block files
    # behind for recovery to adopt or collect.
    if [ "$name" = "spill" ]; then
        ncrash=$(find "$dir/b" -name '*.blk' | wc -l)
        if [ "$ncrash" -eq 0 ]; then
            echo "FAIL($name): no block files on disk at kill time" >&2
            exit 1
        fi
        echo "$name: $ncrash block files on disk at kill time"
    fi

    # Recover and finish the stream.
    $bin $run "$@" -data-dir "$dir/b" -recover serve > "$dir.b2.out" 2>&1
    rec=$(sed -n 's/^recovered "edges" through epoch \([0-9][0-9]*\).*/\1/p' "$dir.b2.out")
    if [ -z "$rec" ] || [ "$rec" -lt 1 ]; then
        echo "FAIL($name): restart did not resume from the batch log" >&2
        cat "$dir.b2.out" >&2
        exit 1
    fi
    echo "$name: recovered through epoch $rec from the log (no source replay)"

    grep '^RESULT' "$dir.b2.out" > "$dir.b.result"
    if ! cmp -s "$dir.a.result" "$dir.b.result"; then
        echo "FAIL($name): recovered results differ from uninterrupted run" >&2
        echo "  uninterrupted: $(cat "$dir.a.result")" >&2
        echo "  recovered:     $(cat "$dir.b.result")" >&2
        exit 1
    fi
    echo "$name: OK: $(cat "$dir.b.result") matches uninterrupted run"

    # Spill leg: the recovered server's final checkpoint must leave exactly
    # the manifest-referenced block files on disk — no orphans from either
    # the crash or the recovery's own re-spilling.
    if [ "$name" = "spill" ]; then
        files=$(sed -n 's/^SPILL files=\([0-9][0-9]*\) refs=[0-9][0-9]*$/\1/p' "$dir.b2.out")
        refs=$(sed -n 's/^SPILL files=[0-9][0-9]* refs=\([0-9][0-9]*\)$/\1/p' "$dir.b2.out")
        if [ -z "$files" ] || [ -z "$refs" ]; then
            echo "FAIL($name): recovered run printed no SPILL line" >&2
            cat "$dir.b2.out" >&2
            exit 1
        fi
        if [ "$files" -eq 0 ] || [ "$files" != "$refs" ]; then
            echo "FAIL($name): SPILL files=$files refs=$refs (want equal, nonzero)" >&2
            exit 1
        fi
        ondisk=$(find "$dir/b" -name '*.blk' | wc -l)
        if [ "$ondisk" -ne "$files" ]; then
            echo "FAIL($name): $ondisk *.blk files on disk, manifest owns $files (orphans)" >&2
            find "$dir/b" -name '*.blk' >&2
            exit 1
        fi
        echo "$name: no orphans: $files block files, all manifest-referenced"
    fi
}

# extend: finish cleanly at 150 rounds, resume to 400, compare with the
# buffered leg's uninterrupted reference.
extend() {
    dir="$tmp/extend"
    short="-workers 2 -nodes 16000 -churn 4000 -rounds 150"
    $bin $short -data-dir "$dir/c" serve > "$dir.c1.out" 2>&1
    $bin $run -data-dir "$dir/c" -recover serve > "$dir.c2.out" 2>&1
    rec=$(sed -n 's/^recovered "edges" through epoch \([0-9][0-9]*\).*/\1/p' "$dir.c2.out")
    if [ "$rec" != 150 ]; then
        echo "FAIL(extend): resumed from epoch '$rec', want 150 (the finished run's rounds)" >&2
        cat "$dir.c2.out" >&2
        exit 1
    fi
    grep '^RESULT' "$dir.c2.out" > "$dir.c.result"
    if ! cmp -s "$tmp/buffered.a.result" "$dir.c.result"; then
        echo "FAIL(extend): resumed results differ from uninterrupted run" >&2
        echo "  uninterrupted: $(cat "$tmp/buffered.a.result")" >&2
        echo "  resumed:       $(cat "$dir.c.result")" >&2
        exit 1
    fi
    echo "extend: OK: finished at 150, resumed to 400: $(cat "$dir.c.result") matches uninterrupted run"
}

mkdir -p "$tmp/buffered" "$tmp/group-commit" "$tmp/spill" "$tmp/extend"
leg buffered
leg group-commit -fsync -group-commit-ms 5
leg spill -spill-bytes 2048
extend
echo "OK: crash-recovery smoke passed (buffered + group-commit + spill + extend)"
