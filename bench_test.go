// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation, one testing.B benchmark per
// artifact (see the per-experiment index in DESIGN.md). The benchmarks
// run the experiments in quick mode so `go test -bench=.` completes in
// minutes; `cmd/experiments` runs the full-size versions.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/synth"
)

const benchSeed = 1

func BenchmarkFig3Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(fairness.FPR, benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTradeoff(b *testing.B, ds string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tradeoff(ds, benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Adult(b *testing.B)      { benchTradeoff(b, "adult") }
func BenchmarkFig5LawSchool(b *testing.B)  { benchTradeoff(b, "lawschool") }
func BenchmarkFig6ProPublica(b *testing.B) { benchTradeoff(b, "propublica") }

func BenchmarkFig7VaryTau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7("propublica", benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8VaryT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8("propublica", benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9aIdentifyByAttrs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9a(benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9bRemedyByAttrs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9b(benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9cIdentifyBySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9c(benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9dRemedyBySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9d(benchSeed, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks -------------------------------------
// These isolate the primitives behind the figures: the naïve vs
// optimized identification gap (Fig. 9a's mechanism) and the
// classifiers. The remedy techniques (Fig. 9b/9d) have their own
// benchmark in internal/remedy.

func benchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	return synth.CompasN(6172, benchSeed)
}

// reportIdentifyWork attaches the traversal's work counters to the
// benchmark output (BENCH_*.json), so regressions in work done — not
// just wall time — are visible: nodes_visited/op is the number of
// candidate regions examined, neighbor_ops/op the aggregation count
// the optimized algorithm reduces.
func reportIdentifyWork(b *testing.B, m *obs.Registry) {
	b.Helper()
	n := float64(b.N)
	b.ReportMetric(float64(m.Counter("identify.nodes_visited").Value())/n, "nodes_visited/op")
	b.ReportMetric(float64(m.Counter("identify.neighbor_ops").Value())/n, "neighbor_ops/op")
}

func BenchmarkIdentifyNaive(b *testing.B) {
	d := benchData(b)
	cfg := core.Config{TauC: 0.1, T: 1}
	m := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IdentifyNaiveCtx(ctx, d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportIdentifyWork(b, m)
}

func BenchmarkIdentifyOptimized(b *testing.B) {
	d := benchData(b)
	cfg := core.Config{TauC: 0.1, T: 1}
	m := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IdentifyOptimizedCtx(ctx, d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportIdentifyWork(b, m)
}

func BenchmarkClassifiers(b *testing.B) {
	d := synth.CompasN(3000, benchSeed)
	for _, kind := range ml.AllModels {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ml.TrainKind(d, kind, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
