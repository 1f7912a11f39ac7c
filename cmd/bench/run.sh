#!/usr/bin/env bash
# Builds cmd/bench inside the checkout and runs it with the given flags:
#   bash cmd/bench/run.sh --workload stream-big --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays under .bench_build/ and
# cmd/bench/out/ of the checkout, the Go build cache included.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
