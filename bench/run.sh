#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source
# inside the checkout, then run it from the checkout's root with the
# arguments given. Everything the build writes (binary, Go build cache)
# stays under .bench_build/ in the checkout. In a directory without the
# repository's sources the build fails and nothing is run.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
