#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash bench/run.sh -workload audit-wide -seed 1 -seconds 20 -trace 0
#
# Everything building and running writes stays under .bench_build in
# the working directory: the Go build cache and config (which holds the
# toolchain's telemetry counters), the binary, and the temporary data
# dirs the workloads create.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
