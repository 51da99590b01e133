package index

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/synth"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len %d count %d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("unset bit reads true")
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	if got := b.Indices(); len(got) != 4 || got[0] != 0 || got[3] != 129 {
		t.Fatalf("indices = %v", got)
	}
}

func TestBitmapAndOps(t *testing.T) {
	a, b := NewBitmap(100), NewBitmap(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	c := NewBitmap(100)
	c.CopyFrom(a)
	c.And(b)
	if c.Count() != 17 { // multiples of 6 in [0, 100)
		t.Fatalf("And count = %d", c.Count())
	}
	// a unchanged.
	if a.Count() != 50 {
		t.Fatal("And mutated its operand")
	}
}

func TestBitmapIterateMatchesGet(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRNG(seed)
		b := NewBitmap(200)
		want := map[int]bool{}
		for i := 0; i < 50; i++ {
			j := r.Intn(200)
			b.Set(j)
			want[j] = true
		}
		got := map[int]bool{}
		prev := -1
		ok := true
		b.Iterate(func(i int) {
			if i <= prev {
				ok = false
			}
			prev = i
			got[i] = true
		})
		if !ok || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testData(t *testing.T) (*dataset.Dataset, *pattern.Space) {
	t.Helper()
	d := synth.CompasN(2000, 7)
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return d, sp
}

func TestIndexMatchesScans(t *testing.T) {
	d, sp := testData(t)
	ix := Build(d)
	if ix.Rows() != d.Len() {
		t.Fatalf("Rows = %d", ix.Rows())
	}
	for _, mask := range sp.Masks() {
		sp.EnumerateNode(mask, func(p pattern.Pattern) {
			if got, want := ix.Select(sp, p).Count(), sp.CountPattern(d, p).N; got != want {
				t.Fatalf("%s: index selects %d rows, scan %d", sp.String(p), got, want)
			}
		})
	}
}

func TestIndexRowsInMatchesScan(t *testing.T) {
	d, sp := testData(t)
	ix := Build(d)
	p, err := sp.Parse("race", "Afr-Am", "sex", "Male")
	if err != nil {
		t.Fatal(err)
	}
	got := ix.RowsIn(sp, p)
	want := sp.RowsIn(d, p)
	if len(got) != len(want) {
		t.Fatalf("lengths %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestIndexAllWildcard(t *testing.T) {
	d, sp := testData(t)
	ix := Build(d)
	root := pattern.NewPattern(sp.Dim())
	if n := ix.Select(sp, root).Count(); n != d.Len() {
		t.Fatalf("root selects %d of %d rows", n, d.Len())
	}
}
