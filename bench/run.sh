#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# into <checkout>/.bench_build and runs it. Every file the build or the
# run writes stays inside the checkout: the Go build cache, temp files
# and the Go toolchain's own counters (XDG_CONFIG_HOME) included.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" --root "$root" "$@"
