package dataset_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
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
