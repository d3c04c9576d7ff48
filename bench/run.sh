#!/usr/bin/env bash
# Build file and entry point of the benchmark: compiles the harness from the
# checkout it sits in and runs it with the arguments given. Everything the Go
# toolchain writes — build cache, temp files, its own config — is pointed
# under .bench_build/ in the checkout; the harness itself writes under
# bench/out/. Nothing else is touched.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure; say so before the Go
# command is started at all.
if [[ ! -f go.mod || ! -d cmd/netout ]]; then
  echo "bench/run.sh: no go.mod and cmd/netout in $PWD: run it in a checkout of the repository" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry in its default mode the Go command starts, once a day per
# config dir, a detached child of itself that outlives the command — a
# process left running after the benchmark. "off" starts none.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
