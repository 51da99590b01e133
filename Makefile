GO ?= go

.PHONY: all build vet test race check lint bench fuzz

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the full remedylint suite (see cmd/remedylint) over the
# module and prints per-analyzer wall-clock cost, so regressions in the
# analysis itself are visible. The same suite runs inside the race step
# of `make check` (TestSelfCheck in cmd/remedylint). Findings fail;
# sanctioned exceptions carry inline //lint:allow comments.
lint:
	$(GO) run ./cmd/remedylint -timings ./...

# bench regenerates the committed BENCH_*.json perf artifact (see
# EXPERIMENTS.md "Benchmark trajectory"). Usage: make bench OUT=BENCH_7.json
OUT ?= BENCH_dev.json
bench:
	sh scripts/bench.sh $(OUT)

# fuzz runs each target for 30 s. The coordinator minimises every new
# interesting input, not only crashers, for up to -fuzzminimizetime
# (60 s by default), which could eat a whole 30-s run; 5 s bounds it.
# Crashers are still saved under testdata/fuzz and reported.
fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzReadCSV -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/durable/ -fuzz FuzzJournalReplay -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/durable/ -fuzz FuzzSnapshotDecode -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/core/ -fuzz FuzzHierarchyCounts -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/core/ -fuzz FuzzIdentifyTraversal -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/pattern/ -fuzz FuzzGroupRows -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/pattern/ -fuzz FuzzKeyRoundTrip -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/pattern/ -fuzz FuzzDominanceConsistency -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/ml/ -fuzz FuzzTreeFit -fuzztime 30s -fuzzminimizetime 5s

# check is the CI gate; its step list lives in scripts/check.sh.
check:
	sh scripts/check.sh
