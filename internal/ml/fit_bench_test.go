package ml

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// BenchmarkFit times one fit of each model on the remedy-train
// workload's training split: the encoded 70% stratified split of a
// full-size (45,222-row) synthetic Adult, unit weights.
func BenchmarkFit(b *testing.B) {
	train, _ := synth.AdultN(45222, 1).StratifiedSplit(0.7, 1)
	x, y, w := dataset.NewEncoding(train.Schema).Encode(train)
	for _, kind := range []ModelKind{DT, LG, NN, RF} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clf, err := NewClassifier(kind, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := clf.Fit(x, y, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
