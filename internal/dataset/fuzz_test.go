package dataset

import (
	"bytes"
	"testing"
)

// FuzzReadCSV asserts the CSV loader never panics and that every
// successfully loaded dataset passes validation, whatever the input
// bytes.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b,label\nx,y,1\nz,w,0\n"), "label")
	f.Add([]byte("label\n1\n0\n"), "label")
	f.Add([]byte(""), "label")
	f.Add([]byte("a,label\n\"unterminated,1\n"), "label")
	f.Add([]byte("a,label\nx,7\n"), "label")
	f.Add([]byte("a,label\nx\n"), "label")
	f.Fuzz(func(t *testing.T, raw []byte, target string) {
		d, err := ReadCSV(bytes.NewReader(raw), target, []string{"a"})
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("loaded dataset fails validation: %v", err)
		}
		// Round-trip: anything we can load we can write, reload, and get
		// the same dataset back (modulo the target column moving last,
		// which WriteCSV canonicalizes).
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		d2, err := ReadCSV(bytes.NewReader(buf.Bytes()), target, []string{"a"})
		if err != nil {
			t.Fatalf("reload failed: %v\ncsv:\n%s", err, buf.Bytes())
		}
		if d2.Len() != d.Len() {
			t.Fatalf("reload row count %d != %d", d2.Len(), d.Len())
		}
		if len(d2.Schema.Attrs) != len(d.Schema.Attrs) {
			t.Fatalf("reload attr count %d != %d", len(d2.Schema.Attrs), len(d.Schema.Attrs))
		}
		for j, a := range d.Schema.Attrs {
			a2 := d2.Schema.Attrs[j]
			if a2.Name != a.Name || a2.Protected != a.Protected {
				t.Fatalf("attr %d mismatch: %+v vs %+v", j, a2, a)
			}
		}
		for i := range d.Rows {
			if d2.Labels[i] != d.Labels[i] {
				t.Fatalf("row %d label %d != %d", i, d2.Labels[i], d.Labels[i])
			}
			for j, v := range d.Rows[i] {
				got := d2.Schema.Attrs[j].Values[d2.Rows[i][j]]
				want := d.Schema.Attrs[j].Values[v]
				if got != want {
					t.Fatalf("row %d attr %d value %q != %q", i, j, got, want)
				}
			}
		}
	})
}
