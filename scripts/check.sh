#!/bin/sh
# check.sh — the CI gate and its one step list: formatting, build,
# vet, every test under the race detector, then vet and tests of the
# bench module. `make check` runs this script. To run one layer's
# slice of the race run, name its package and tests, for example:
#   go test -race -count=1 -run 'Durable|Crash|Recovery' ./internal/serve/
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race -count=1 ./..."
# Every package under the race detector, uncached: the obs, serve,
# durable, cluster, chaos, fleet-observability and load suites are all
# part of it. So is the remedylint
# static-analysis gate: TestSelfCheck in cmd/remedylint runs the whole
# suite (panicgate, determinism, ctxfirst, errdiscard, obspair and the
# call-graph-backed lockorder, heldcall and goroleak) over the module
# and fails on any finding or warning. Sanctioned exceptions are waived
# inline with //lint:allow comments; `make lint` runs the same suite
# with per-analyzer timings.
go test -race -count=1 ./...

echo "== (cd bench && go vet ./... && go test ./...)"
# bench/ is its own module, so the root build and tests skip it; this
# step fails when a change to the root packages breaks the benchmark
# harness or moves its golden outputs (bench/testdata/golden.json).
(cd bench && go vet ./... && go test ./...)

echo "all checks passed"
