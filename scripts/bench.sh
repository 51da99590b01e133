#!/bin/sh
# bench.sh — run the root benchmark suite (bench_test.go: every paper
# figure in quick mode plus the identify and classifier micro-benchmarks) and
# the layer benchmarks of internal/ml (one fit per model),
# internal/core (preload and optimized identify), internal/divexplorer
# (one FPR audit of the Adult test split), internal/durable (Reduce of
# a 10k-record journal, one journal append with and without fsync) and
# internal/remedy (each technique on synthetic ProPublica, incremental
# vs recounted massaging on synthetic Adult),
# and write the machine-readable BENCH_*.json artifact that tracks the
# repo's perf trajectory across PRs. Each row records its package.
#
# Usage:
#   scripts/bench.sh BENCH_8.json           # default -benchtime 5x
#   BENCHTIME=10x scripts/bench.sh out.json # more samples, slower
#
# The default is a fixed -benchtime 5x: every benchmark runs exactly
# five iterations, enough for the tooling to average out per-iteration
# jitter (a 1x run reports a single sample, which BENCH_6.json showed
# to be too noisy to compare across PRs) while staying deterministic —
# a fixed iteration count, unlike a time budget, does the same work on
# a fast and a slow machine.
#
# The JSON carries wall-clock (ns/op), allocation (B/op, allocs/op),
# and the work counters the identify benchmarks report
# (nodes_visited/op, neighbor_ops/op) — regressions in work done are
# visible even when wall time is noisy.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_dev.json}"
benchtime="${BENCHTIME:-5x}"

echo "== go test -bench . -benchtime $benchtime (writing $out)"
go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -count 1 \
    . ./internal/ml/ ./internal/core/ ./internal/divexplorer/ ./internal/durable/ \
    ./internal/remedy/ \
    | tee /dev/stderr \
    | go run scripts/benchjson.go > "$out"
echo "== wrote $out"
