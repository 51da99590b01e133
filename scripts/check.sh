#!/bin/sh
# check.sh — the CI gate and its one step list: build, vet, the
# remedylint static-analysis suite, and every test under the race
# detector. `make check` runs this script. The per-layer Makefile
# targets (obs-check, serve-check, durable-check, cluster-check,
# chaos-check, obs-fleet-check, load-check) are developer shortcuts
# into the same tests; the final race run covers them all.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== remedylint (make lint)"
# The typed replacement for the old grep panic gate: panicgate,
# determinism, ctxfirst, errdiscard, and obspair over the whole module.
# Sanctioned exceptions (remedyctl's blank net/http/pprof import for
# the opt-in -pprof server, say) are waived inline with //lint:allow
# comments; the baseline file is empty and must stay that way.
go run ./cmd/remedylint ./...

echo "== remedylint: interprocedural concurrency/durability analyzers"
# The call-graph-backed analyzers gate the repo's concurrency and
# durability contracts directly: lockorder (no lock-acquisition
# cycles — the applyMu/mu inversion class), heldcall (no blocking
# round-trip/fsync/unbuffered-send while a mutex is held, unless
# waived with the design reason inline), goroleak (every goroutine
# has a cancellation path), journalgate (every job state transition
# in serve/cluster journals before acknowledging). Any new finding
# from these fails the gate.
go run ./cmd/remedylint -analyzers lockorder,heldcall,goroleak,journalgate ./...

echo "== go test -race -count=1 ./..."
# Every package under the race detector, uncached: the obs, serve,
# durable, cluster, chaos, fleet-observability and load suites the
# per-layer targets run are all part of it.
go test -race -count=1 ./...

echo "all checks passed"
