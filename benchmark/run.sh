#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it from
# the repository root. All arguments go to the benchmark binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C benchmark -o "$build/pgasbench" .
exec "$build/pgasbench" "$@"
