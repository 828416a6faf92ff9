#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root; arguments are passed to the benchmark:
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# The go command keeps its caches, settings and telemetry inside the
# checkout and never downloads a toolchain or module.
(
  cd "$root/perfbench"
  GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod go build -o "$build/perfbench" .
)
exec "$build/perfbench" --scratch "$build/tmp" "$@"
