#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache included) stays under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it. Arguments go to the binary:
#   bash benchmark/run.sh --workload dis --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/mplgo-benchmark" .) >&2
cd "$root"
exec "$build/mplgo-benchmark" "$@"
