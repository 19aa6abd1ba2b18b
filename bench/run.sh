#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout root
# and runs it there. Everything the Go toolchain writes (build cache, temp
# files, config) is kept inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/kpg-bench" .
cd "$root"
exec "$build/kpg-bench" "$@"
