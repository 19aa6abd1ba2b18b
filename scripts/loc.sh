#!/bin/sh
# Prints the non-test Go lines of every package (one directory each), the
# benchmark module under bench/ excluded, then their total: the size figure
# a change reports beside its benchmark table. Counts tracked files that
# still exist plus untracked ones git does not ignore, so build and
# benchmark scratch directories never count.
#
# Given a git ref, prints each package's lines at that ref, in the working
# tree and the difference, then the same three totals: the before/after
# figure of a change against its parent.
#
# Usage: scripts/loc.sh [ref]
set -eu
cd "$(dirname "$0")/.."

# worktree prints "package lines" for every counted file of the working tree.
worktree() {
    git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:bench/**' |
        while IFS= read -r f; do
            [ -e "$f" ] || continue # tracked, but deleted in the working tree
            echo "$(dirname "$f") $(wc -l < "$f")"
        done
}

# atref prints the same for the files committed at ref $1.
atref() {
    git ls-tree -r --name-only "$1" |
        awk '/\.go$/ && !/_test\.go$/ && !/^bench\//' |
        while IFS= read -r f; do
            echo "$(dirname "$f") $(git show "$1:$f" | wc -l)"
        done
}

if [ $# -eq 0 ]; then
    worktree |
        awk '{ n[$1] += $2; total += $2 }
            END {
                for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
                close("sort -k2")
                printf "%7d  total\n", total
            }'
    exit 0
fi

ref=$1
git rev-parse --verify --quiet "$ref^{commit}" > /dev/null || {
    echo "loc.sh: unknown ref $ref" >&2
    exit 2
}
{
    atref "$ref" | awk '{ print "old", $0 }'
    worktree | awk '{ print "new", $0 }'
} | awk -v ref="$ref" '
    { n[$1, $2] += $3; pkg[$2] = 1; total[$1] += $3 }
    END {
        printf "%7s %7s %7s  %s\n", "at ref", "tree", "delta", "package (ref " ref ")"
        for (p in pkg)
            printf "%7d %7d %+7d  %s\n", n["old", p], n["new", p], n["new", p] - n["old", p], p | "sort -k4"
        close("sort -k4")
        printf "%7d %7d %+7d  total\n", total["old"], total["new"], total["new"] - total["old"]
    }'
