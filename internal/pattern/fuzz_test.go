package pattern

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// FuzzKeyRoundTrip asserts Key/DecodeKey stay inverse for any slot
// assignment the encoding admits.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add(int16(-1), int16(0), int16(2))
	f.Add(int16(2), int16(2), int16(2))
	f.Fuzz(func(t *testing.T, a, b, c int16) {
		sp, err := NewSpace(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		clamp := func(v int16, card int) int16 {
			if v < 0 {
				return Wildcard
			}
			return v % int16(card)
		}
		p := Pattern{clamp(a, sp.Cards[0]), clamp(b, sp.Cards[1]), clamp(c, sp.Cards[2])}
		if got := sp.DecodeKey(sp.Key(p)); !got.Equal(p) {
			t.Fatalf("round trip %v -> %v", p, got)
		}
	})
}

// FuzzDominanceConsistency asserts that dominance implies containment:
// whenever general dominates specific, every row matching specific also
// matches general.
func FuzzDominanceConsistency(f *testing.F) {
	f.Add(int16(0), int16(-1), int16(1), int16(0), int16(2), int16(1), int32(0), int32(2), int32(1))
	f.Fuzz(func(t *testing.T, g0, g1, g2, s0, s1, s2 int16, r0, r1, r2 int32) {
		sp, err := NewSpace(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		clampP := func(v int16, card int) int16 {
			if v < 0 {
				return Wildcard
			}
			return v % int16(card)
		}
		clampR := func(v int32, card int) int32 {
			if v < 0 {
				v = -v
			}
			return v % int32(card)
		}
		g := Pattern{clampP(g0, sp.Cards[0]), clampP(g1, sp.Cards[1]), clampP(g2, sp.Cards[2])}
		s := Pattern{clampP(s0, sp.Cards[0]), clampP(s1, sp.Cards[1]), clampP(s2, sp.Cards[2])}
		// Build a full schema row (protected slots + the unprotected
		// charge attribute).
		row := []int32{
			clampR(r0, sp.Cards[0]), clampR(r1, sp.Cards[1]), clampR(r2, sp.Cards[2]), 0,
		}
		if Dominates(g, s) && sp.MatchRow(s, row) && !sp.MatchRow(g, row) {
			t.Fatalf("dominance/containment broken: g=%v s=%v row=%v", g, s, row)
		}
	})
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

// FuzzGroupRows groups every node of a random space (1–6 protected
// attributes of cardinality 2–6, after an unprotected column so slots
// and schema columns differ) and checks the groups against RowsIn: they
// partition the rows, each region's rows equal the scan's in ascending
// order, and the non-empty regions come out in ascending Key order.
func FuzzGroupRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 3, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		s := &dataset.Schema{Target: "y", Attrs: []dataset.Attr{{Name: "u", Values: []string{"0", "1", "2"}}}}
		for i, dim := 0, 1+in.next()%6; i < dim; i++ {
			vals := make([]string, 2+in.next()%5)
			for v := range vals {
				vals[v] = fmt.Sprint(v)
			}
			s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprintf("a%d", i), Values: vals, Protected: true})
		}
		d := dataset.New(s)
		for r, rows := 0, in.next()%64; r < rows; r++ {
			row := make([]int32, len(s.Attrs))
			for i := range row {
				row[i] = int32(in.next() % len(s.Attrs[i].Values))
			}
			if err := d.Append(row, 0); err != nil {
				t.Fatal(err)
			}
		}
		sp, err := NewSpace(s)
		if err != nil {
			t.Fatal(err)
		}
		// One Groups regrouped node after node must match a fresh one.
		var reused Groups
		for _, mask := range sp.Masks() {
			reused.Regroup(sp, d, mask)
			for _, g := range []*Groups{sp.GroupRows(d, mask), &reused} {
				checkGroups(t, sp, d, mask, g)
				sp.EnumerateNode(mask, func(p Pattern) {
					if got, want := g.Rows(p), sp.RowsIn(d, p); !equalRows(got, want) {
						t.Fatalf("mask %#x region %v: rows %v, scan %v", mask, p, got, want)
					}
				})
			}
		}
	})
}

// TestGroupRowsWideLeaf groups the leaf node of a 12-attribute,
// cardinality-30 space, whose 30^12 regions no dense table could hold.
func TestGroupRowsWideLeaf(t *testing.T) {
	sp, d := wideData(t, 3000, 5)
	checkGroups(t, sp, d, 1<<MaxDim-1, sp.GroupRows(d, 1<<MaxDim-1))
}

// checkGroups checks g, a grouping of d by node mask, against RowsIn
// region by region.
func checkGroups(t *testing.T, sp *Space, d *dataset.Dataset, mask uint32, g *Groups) {
	t.Helper()
	seen := make([]bool, d.Len())
	total := 0
	for i := 0; i < g.Len(); i++ {
		k, rows := g.Region(i)
		if i > 0 {
			if prev, _ := g.Region(i - 1); prev >= k {
				t.Fatalf("mask %#x: region keys %#x then %#x", mask, prev, k)
			}
		}
		p := sp.DecodeKey(k)
		if p.Mask() != mask {
			t.Fatalf("mask %#x: region %v is in node %#x", mask, p, p.Mask())
		}
		if want := sp.RowsIn(d, p); len(rows) == 0 || !equalRows(rows, want) {
			t.Fatalf("mask %#x region %v: rows %v, scan %v", mask, p, rows, want)
		}
		for _, r := range rows {
			if seen[r] {
				t.Fatalf("mask %#x: row %d in two regions", mask, r)
			}
			seen[r] = true
		}
		total += len(rows)
	}
	if total != d.Len() {
		t.Fatalf("mask %#x: groups hold %d of %d rows", mask, total, d.Len())
	}
}

func equalRows(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}
