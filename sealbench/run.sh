#!/usr/bin/env bash
# Builds the seal CLI and the benchmark from source into .bench_build/,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash sealbench/run.sh --workload eval-batch --seed 42 --seconds 30 --trace 0
#
# Go's build cache, temporary files and any per-user state the toolchain
# or the program writes stay inside .bench_build/ too.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
# Telemetry off before the first go command: otherwise go starts a
# detached telemetry child that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/seal" ./cmd/seal >&2
(cd sealbench && go build -o "$build/sealbench" .) >&2

exec "$build/sealbench" -seal "$build/seal" -out "$build/out" "$@"
