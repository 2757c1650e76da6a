#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh -workload flow_corpus -seed 1 -seconds 10 -trace 0
#
# Run it from the repository root. The binary, the Go build cache, Go's
# own configuration and telemetry files and every temporary file (the
# service's data directories included) stay under .bench_build/ in the
# current directory. The build needs no network: the benchmark imports
# only the standard library and the repository's own module.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go -C "$root/benchmark" build -o "$build/alice-benchmark" . >&2
exec "$build/alice-benchmark" "$@"
