#!/bin/bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build and the run write — the Go build cache
# included — stays under .bench_build/ next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
