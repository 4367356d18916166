#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, forwarding
# every argument, e.g.
#
#   bash bench/run.sh -workload paper-grid -seed 0 -seconds 20 -trace 0
#
# Everything the toolchain writes stays in the checkout: the build cache,
# temporary files, Go's config directory and the binary go under
# $CARGO_TARGET_DIR (default .bench_build). Modules are never fetched.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp PPROF_TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOFLAGS=-mod=readonly GOPROXY=off \
	GOSUMDB=off GOTOOLCHAIN=local
go -C bench build -o "$build/itsim-bench" .
exec "$build/itsim-bench" "$@"
