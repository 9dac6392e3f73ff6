#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (kept out of git) and
# runs it from the root of the checkout. Everything the toolchain writes
# stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE=$root/.bench_build/gocache GOMODCACHE=$root/.bench_build/gomod
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
: "${BENCH_COMMIT:=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
