package dataset_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// BenchmarkReadCSV times one ReadCSV of an in-memory CSV of a
// full-size (45,222-row) synthetic Adult, protected attributes marked.
func BenchmarkReadCSV(b *testing.B) {
	d := synth.AdultN(synth.AdultSize, 1)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	var protected []string
	for _, a := range d.Schema.Attrs {
		if a.Protected {
			protected = append(protected, a.Name)
		}
	}
	b.Run("adult", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			got, err := dataset.ReadCSV(bytes.NewReader(buf.Bytes()), d.Schema.Target, protected)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != d.Len() {
				b.Fatalf("%d rows, want %d", got.Len(), d.Len())
			}
		}
	})
}

// BenchmarkBucketize times bucketizing one Adult-size column of raw
// ages, 17 to 90, into the synthetic Adult's five age buckets.
func BenchmarkBucketize(b *testing.B) {
	r := stats.NewRNG(1)
	ages := make([]float64, synth.AdultSize)
	for i := range ages {
		ages[i] = float64(17 + r.Intn(74))
	}
	cuts := []float64{24, 34, 44, 54}
	codes := make([]int32, len(ages))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range ages {
			codes[j] = dataset.Bucketize(v, cuts)
		}
	}
	if codes[0] < 0 || int(codes[0]) > len(cuts) {
		b.Fatalf("bucket %d out of range", codes[0])
	}
}
