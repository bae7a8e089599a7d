#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Build output and the Go build cache live under
# .bench_build/ so nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/cssi-bench ./bench
exec .bench_build/cssi-bench "$@"
