#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload wire-solve --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache and the Go toolchain's own
# config and telemetry files go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$PWD/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
