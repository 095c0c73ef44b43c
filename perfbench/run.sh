#!/usr/bin/env bash
# Builds the benchmark and the wspd daemon from this checkout's sources into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload tablei-e2e --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, module cache, telemetry) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/wspd" repro/cmd/wspd
exec "$out/perfbench" -wspd "$out/wspd" -trace-dir "$out/traces" "$@"
