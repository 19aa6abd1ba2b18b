#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout
# (choosing-metrics §8): the evidence a change that claims a gain, or claims
# to have moved nothing, puts in CHANGES.md.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/bench_pair.sh <parent-ref> <workload|all> [pairs=10]

Extracts <parent-ref> into its own directory, so that either side builds its
own bench/ from its own source, and runs the workload pairs times on each,
seed i for pair i on both sides, the side that goes first alternating. The
change side is this checkout as it stands, uncommitted edits included.
Prints, for every end-to-end metric of BENCHMARK.json, both medians and
quartiles, the ratio, the parent's own spread and the pairs the change won,
as the markdown table CHANGES.md keeps, with a verdict per row:

  better                      won >= 9/10 of the pairs (ties count for
                              neither side) and the medians differ by more
                              than the parent's interquartile range
  unresolved (spread > bound) the parent's IQR/median exceeds the bound
  no worse                    the change's median is not on the wrong side
  within bound                worse, by no more than the metric's bound
  WORSE                       worse by more than the bound

Environment:
  BENCH_PAIR_DIR  where the parent tree and the run outputs go
                  (default: .bench_build/pair under the checkout)
  BENCH_SECONDS   length of each run's measured phase (default 20, which is
                  BENCHMARK.json's run_seconds)
EOF
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    usage >&2
    exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seconds=${BENCH_SECONDS:-20}

root=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_PAIR_DIR:-$root/.bench_build/pair}
contract=$root/BENCHMARK.json

# The workload names, in the contract's order.
names=$(awk '/"workloads"/ { on = 1 } on && /^  \]/ { on = 0 }
    on && $1 == "\"name\":" { gsub(/[",]/, "", $2); print $2 }' "$contract")
if [ "$workload" != all ]; then
    if ! printf '%s\n' "$names" | grep -qx -- "$workload"; then
        echo "bench_pair: no workload \"$workload\" in BENCHMARK.json (have: $(echo $names), or all)" >&2
        exit 2
    fi
    names=$workload
fi

rm -rf "$work/parent" "$work/runs"
mkdir -p "$work/parent" "$work/runs"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
parent_commit=$(git -C "$root" rev-parse --short "$ref")

# run <side> <dir> <workload> <seed>: one run, as the driver makes it. A run
# that fails its oracle exits 1 and says so in its "##" line, which the
# table's footer counts; the pairing goes on.
run() {
    (cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
        >"$work/runs/$1.$3.$4.txt" 2>"$work/runs/$1.$3.$4.err" || true
}

for w in $names; do
    for i in $(seq 1 "$pairs"); do
        echo "bench_pair: $w pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$work/parent" "$w" "$i"
            run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"
            run parent "$work/parent" "$w" "$i"
        fi
    done
done

echo "parent $parent_commit against the checkout at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD 2>/dev/null || echo ' + uncommitted edits'); $pairs pairs, seeds 1..$pairs, $seconds s runs, $(nproc) cores"
echo
awk -v contract="$contract" '
function sortvals(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
function quantile(a, n, q,    pos, lo) {
    pos = 1 + (n - 1) * q
    lo = int(pos)
    if (lo >= n) return a[n]
    return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
# stats fills med/q1/q3[side] from the runs of (workload, metric) on a side.
function stats(side, w, m,    n, i, v) {
    n = 0
    for (i = 1; i <= maxseed; i++)
        if ((side, w, m, i) in val) v[++n] = val[side, w, m, i]
    sortvals(v, n)
    med[side] = quantile(v, n, 0.5)
    q1[side] = quantile(v, n, 0.25)
    q3[side] = quantile(v, n, 0.75)
    return n
}
FILENAME == contract {
    if ($0 ~ /"end_to_end"/) on = 1
    else if (on && $0 ~ /^  \]/) on = 0
    if (on && $1 == "\"name\":") { cur = $2; gsub(/[",]/, "", cur); metrics[++nmetrics] = cur }
    if (on && $1 == "\"better\":") { v = $2; gsub(/[",]/, "", v); better[cur] = v }
    if (on && $1 == "\"bound\":") { v = $2; gsub(/[",]/, "", v); bound[cur] = v }
    next
}
FNR == 1 {
    n = split(FILENAME, path, "/")
    split(path[n], part, ".")
    side = part[1]; w = part[2]; seed = part[3] + 0
    if (!(w in seenw)) { seenw[w] = 1; wl[++nwl] = w }
    if (seed > maxseed) maxseed = seed
    ran[side]++
}
/^## / {
    for (i = 1; i <= NF; i++) {
        if ($i ~ /^attempted=/) { sub(/^attempted=/, "", $i); attempted[side] += $i }
        if ($i ~ /^failed=/) { sub(/^failed=/, "", $i); failed[side] += $i }
        if ($i == "correct=true") correct[side]++
    }
}
NF == 3 && ($1 in better) { val[side, w, $1, seed] = $2 + 0 }
END {
    print "  | workload | metric | parent median | change median | change/parent | bound | parent IQR/median | wins/pairs | verdict | parent q1..q3 | change q1..q3 |"
    print "  |---|---|---|---|---|---|---|---|---|---|---|"
    for (wi = 1; wi <= nwl; wi++) for (mi = 1; mi <= nmetrics; mi++) {
        w = wl[wi]; m = metrics[mi]
        np = stats("parent", w, m); nc = stats("change", w, m)
        if (np == 0 || nc == 0) continue
        wins = 0; losses = 0; npairs = 0
        for (i = 1; i <= maxseed; i++) {
            if (!(("parent", w, m, i) in val) || !(("change", w, m, i) in val)) continue
            npairs++
            d = val["change", w, m, i] - val["parent", w, m, i]
            if (better[m] == "higher") d = -d
            if (d < 0) wins++
            else if (d > 0) losses++
        }
        ratio = med["parent"] != 0 ? med["change"] / med["parent"] : 0
        iqr = q3["parent"] - q1["parent"]
        spread = med["parent"] != 0 ? iqr / med["parent"] : 0
        worse = better[m] == "higher" ? 1 - ratio : ratio - 1   # > 0: the change is worse
        gap = med["change"] - med["parent"]; if (gap < 0) gap = -gap
        if (worse < 0 && wins >= 0.9 * npairs && gap > iqr) verdict = "better"
        else if (spread > bound[m]) verdict = "unresolved (spread > bound)"
        else if (worse <= 0) verdict = "no worse"
        else if (worse <= bound[m]) verdict = "within bound"
        else verdict = "WORSE"
        printf "  | %s | %s | %.4g | %.4g | %.3f | %s | %.3f | %d/%d | %s | %.4g..%.4g | %.4g..%.4g |\n",
            w, m, med["parent"], med["change"], ratio, bound[m], spread, wins, npairs, verdict,
            q1["parent"], q3["parent"], q1["change"], q3["change"]
    }
    print ""
    printf "parent: %d runs, %d correct, %d failed of %d attempted operations\n",
        ran["parent"], correct["parent"], failed["parent"], attempted["parent"]
    printf "change: %d runs, %d correct, %d failed of %d attempted operations\n",
        ran["change"], correct["change"], failed["change"], attempted["change"]
}' "$contract" "$work"/runs/*.txt
