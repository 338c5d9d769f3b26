#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from there. Everything the Go toolchain writes (build cache, temporary
# files) is kept inside .bench_build/, so a run touches nothing outside the
# checkout. The first build compiles the standard library into that cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
(cd "$here" && go build -o "$build/jupiterbench" .)
cd "$root"
exec "$build/jupiterbench" "$@"
