#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json's command is `bash benchmark/run.sh`; the driver appends
# --workload, --seed, --seconds and --trace. Everything go writes (build
# cache, module cache, temporary files, telemetry) is kept under
# .bench_build in the checkout, so a run reads and writes nothing
# outside it. By hand, `go run ./benchmark ...` from the repository root
# does the same with the user's own go cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program's source is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would start a detached
# telemetry child that outlives this script; mode "off" stops that.
echo off >"$build/config/go/telemetry/mode"
export GOTMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go build -o "$build/archis-benchmark" ./benchmark
exec "$build/archis-benchmark" "$@"
