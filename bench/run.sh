#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the Go toolchain writes (build cache, its config directory, the
# binary) stays under .bench_build/ in the checkout; the benchmark itself
# writes only under bench/out/. Both are in .gitignore.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Without the program there is nothing to measure: say so and start nothing.
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $root: the program is not here" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
# The module has no dependencies: never reach for the network.
export GOTOOLCHAIN=local GOPROXY=off

# The go command starts a detached telemetry child unless its mode file says
# off; that child would outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# go build is a no-op when nothing changed (≈0.2 s with a warm cache).
go build -o "$build/cachegen-e2e" ./bench

exec "$build/cachegen-e2e" "$@"
