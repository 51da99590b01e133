package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/synth"
)

// newHierarchyOn builds a hierarchy whose counts live in backend b,
// whatever the dense/sparse rule would choose.
func newHierarchyOn(tb testing.TB, d *dataset.Dataset, b backend) *Hierarchy {
	tb.Helper()
	h, err := NewHierarchy(d)
	if err != nil {
		tb.Fatal(err)
	}
	h.backend = b
	return h
}

var backends = []struct {
	name string
	b    backend
}{{"dense", dense}, {"sparse", sparse}}

// identifyOn runs the optimized identification on backend b.
func identifyOn(t *testing.T, d *dataset.Dataset, b backend, cfg Config) *Result {
	t.Helper()
	res, err := newHierarchyOn(t, d, b).IdentifyOptimizedCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// agree runs the identification check as a named subtest.
func agree(t *testing.T, name string, got, want *Result) {
	t.Helper()
	t.Run(name, func(t *testing.T) { identicalResults(t, got, want) })
}

func TestBackendsAgree(t *testing.T) {
	d := synth.AdultN(3000, 31) // |X| = 6
	dim := newHierarchyOn(t, d, undecided).Space.Dim()
	for _, T := range []int{1, 2, dim} {
		for _, scope := range []Scope{Lattice, Leaf, Top} {
			for _, workers := range []int{1, 4} {
				cfg := Config{TauC: 0.2, T: T, MinSize: 10, Scope: scope, Workers: workers}
				name := fmt.Sprintf("T=%d/%s/workers=%d", T, scope, workers)
				agree(t, name, identifyOn(t, d, sparse, cfg), identifyOn(t, d, dense, cfg))
			}
		}

		// Resume from each level checkpoint a dense run cut.
		base := Config{TauC: 0.2, T: T, MinSize: 10}
		full := identifyOn(t, d, dense, base)
		var snaps []LevelSnapshot
		cfg := base
		cfg.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
			snaps = append(snaps, snap)
			return nil
		}
		identifyOn(t, d, dense, cfg)
		for k := 0; k <= len(snaps); k++ {
			for _, workers := range []int{1, 4} {
				rcfg := base
				rcfg.Resume, rcfg.Workers = snaps[:k], workers
				for _, bk := range backends {
					name := fmt.Sprintf("T=%d/resume=%d/workers=%d/%s", T, k, workers, bk.name)
					agree(t, name, identifyOn(t, d, bk.b, rcfg), full)
				}
			}
		}
	}
}

func TestNaiveAgreesAcrossBackends(t *testing.T) {
	d := randomData(t, 600, 37)
	for _, T := range []int{1, 3} {
		cfg := Config{TauC: 0.2, T: T, MinSize: 10}
		var got []*Result
		for _, bk := range backends {
			res, err := newHierarchyOn(t, d, bk.b).IdentifyNaive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
		agree(t, fmt.Sprintf("T=%d", T), got[1], got[0])
	}
}

func TestBackendRule(t *testing.T) {
	// 7^10 regions against 200 rows · 2^10 sparse entries: sparse.
	s := &dataset.Schema{Target: "y"}
	for i := 0; i < 10; i++ {
		s.Attrs = append(s.Attrs, dataset.Attr{
			Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1", "2", "3", "4", "5"}, Protected: true,
		})
	}
	wide := dataset.New(s)
	for r := 0; r < 200; r++ {
		row := make([]int32, 10)
		for i := range row {
			row[i] = int32((r*(i+3) + i) % 6)
		}
		wide.Append(row, int8(r%2))
	}
	h := newHierarchyOn(t, wide, undecided)
	if _, err := h.IdentifyOptimized(Config{TauC: 0.2, T: 1, Scope: Top}); err != nil {
		t.Fatal(err)
	}
	if h.backend != sparse || h.cube != nil {
		t.Fatalf("200 rows x 10 attributes of cardinality 6: backend %d, want sparse", h.backend)
	}

	// Adult over |X| = 8: 453,600 regions against 45,222 · 2^8 entries.
	h = newHierarchyOn(t, adult8(t), undecided)
	if err := h.Preload(1); err != nil {
		t.Fatal(err)
	}
	if h.backend != dense || h.cube == nil {
		t.Fatalf("Adult |X| = 8: backend %d, want dense", h.backend)
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// FuzzHierarchyCounts drives both backends through a random schema,
// random rows and a random sequence of AddRow/RemoveRow/FlipRow, with
// the first count read at a random point of the sequence, and checks
// every region's counts against a scan of the mutated dataset.
func FuzzHierarchyCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 3, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 8, 3, 0, 1, 1, 2, 2, 0, 5, 1})
	f.Add([]byte{5, 4, 4, 4, 4, 4, 4, 40, 9, 200, 17, 33, 65, 129, 7, 12, 0, 0, 0, 1, 2, 3, 5, 8, 13, 21, 34})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		s := &dataset.Schema{Target: "y"}
		for i, dim := 0, 1+in.next()%6; i < dim; i++ {
			vals := make([]string, 2+in.next()%5)
			for v := range vals {
				vals[v] = fmt.Sprint(v)
			}
			s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprintf("a%d", i), Values: vals, Protected: true})
		}
		randRow := func() []int32 {
			row := make([]int32, len(s.Attrs))
			for i := range row {
				row[i] = int32(in.next() % len(s.Attrs[i].Values))
			}
			return row
		}
		// Two thirds positive, so small regions often have |r-| = 0.
		randLabel := func() int8 {
			if in.next()%3 == 0 {
				return 0
			}
			return 1
		}
		d := dataset.New(s)
		for r, rows := 0, in.next()%48; r < rows; r++ {
			d.Append(randRow(), randLabel())
		}
		hs := make([]*Hierarchy, len(backends))
		for i, bk := range backends {
			hs[i] = newHierarchyOn(t, d, bk.b)
		}
		ops := in.next() % 24
		firstRead := in.next() % (ops + 1)
		for op := 0; op < ops; op++ {
			if op == firstRead {
				for _, h := range hs {
					h.count(pattern.NewPattern(h.Space.Dim()))
				}
			}
			switch in.next() % 3 {
			case 0:
				row, label := randRow(), randLabel()
				d.Append(row, label)
				for _, h := range hs {
					h.AddRow(row, label == 1)
				}
			case 1:
				if d.Len() == 0 {
					continue
				}
				i := in.next() % d.Len()
				for _, h := range hs {
					h.RemoveRow(d.Rows[i], d.Labels[i] == 1)
				}
				*d = *d.Remove([]int{i})
			case 2:
				if d.Len() == 0 {
					continue
				}
				i := in.next() % d.Len()
				d.Labels[i] = 1 - d.Labels[i]
				for _, h := range hs {
					h.FlipRow(d.Rows[i], d.Labels[i] == 1)
				}
			}
		}
		for i, h := range hs {
			name := backends[i].name
			if h.Totals() != pattern.Totals(d) {
				t.Fatalf("%s: totals %+v, want %+v", name, h.Totals(), pattern.Totals(d))
			}
			for _, mask := range h.Space.Masks() {
				h.Space.EnumerateNode(mask, func(p pattern.Pattern) {
					if got, want := h.count(p), h.Space.CountPattern(d, p); got != want {
						t.Fatalf("%s: region %s: %+v, want %+v", name, h.Space.String(p), got, want)
					}
				})
			}
		}
	})
}

// adult8 is synthetic Adult with Fig. 9's eight protected attributes.
func adult8(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	d := synth.Adult(1)
	s := d.Schema.Clone()
	if err := s.SetProtected(synth.AdultScalabilityProtected...); err != nil {
		tb.Fatal(err)
	}
	return &dataset.Dataset{Schema: s, Rows: d.Rows, Labels: d.Labels, Weights: d.Weights}
}

var benchResult *Result

func BenchmarkPreload(b *testing.B) {
	d := adult8(b)
	for _, bk := range backends {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := newHierarchyOn(b, d, bk.b).PreloadCtx(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIdentifyOptimized(b *testing.B) {
	d := adult8(b)
	b.Run("adult8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := IdentifyOptimized(d, Config{TauC: 0.5, T: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			benchResult = res
		}
	})
}
