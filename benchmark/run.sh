#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache, temporary files, the binary)
# stays in .bench_build at the root of the checkout; the benchmark itself
# runs from that root. A checkout without the product source fails here,
# before any result is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/seastar-benchmark" .)
cd "$root"
exec "$build/seastar-benchmark" "$@"
