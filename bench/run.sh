#!/usr/bin/env bash
# Builds the benchmark binary once, inside the checkout, and runs it with
# the arguments given. Compile time therefore never lands in setup_s,
# and nothing is written outside the checkout: the go build cache and
# temporary files are kept under .bench_build/ too.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The go tool stamps the git commit into the binary for the output
# header; where it cannot (no repository, or one git refuses to read),
# build without the stamp.
go build -o "$build/lazybench" ./bench 2>/dev/null ||
	go build -buildvcs=false -o "$build/lazybench" ./bench
exec "$build/lazybench" "$@"
