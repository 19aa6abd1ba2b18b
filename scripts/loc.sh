#!/bin/sh
# Prints the non-test Go lines of every package (one directory each), the
# benchmark module under bench/ excluded, then their total: the size figure
# a change reports beside its benchmark table. Counts tracked files plus
# untracked ones git does not ignore, so build and benchmark scratch
# directories never count.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:bench/**' |
    while IFS= read -r f; do
        echo "$(dirname "$f") $(wc -l < "$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
        END {
            for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
