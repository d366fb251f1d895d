#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, temp files, the
# binary, shm ring files, span files) lands under .bench_build/ at the
# checkout root, so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ftbench" .)
cd "$root"
exec "$build/ftbench" "$@"
