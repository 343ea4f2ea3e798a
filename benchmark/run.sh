#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it, from the checkout root, with the arguments given. Everything Go
# writes (build cache, temporary files, the binary) stays inside the
# checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/mocha-benchmark" .
exec "$build/mocha-benchmark" "$@"
