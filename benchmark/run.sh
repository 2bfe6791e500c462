#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything Go writes (build cache, temp files, the binary) stays inside the
# checkout, under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$(dirname "$0")" -o "$build/qr-benchmark" .
exec "$build/qr-benchmark" "$@"
