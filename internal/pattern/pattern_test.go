package pattern

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "age", Values: []string{"<25", "25-45", ">45"}, Protected: true, Ordered: true},
			{Name: "priors", Values: []string{"0", "1-3", ">3"}, Protected: true, Ordered: true},
			{Name: "race", Values: []string{"Cauc", "Afr-Am", "Hisp"}, Protected: true},
			{Name: "charge", Values: []string{"M", "F"}},
		},
	}
}

func testSpace(t *testing.T) *Space {
	t.Helper()
	sp, err := NewSpace(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func testData(t *testing.T, n int, seed int64) (*Space, *dataset.Dataset) {
	t.Helper()
	s := testSchema()
	d := dataset.New(s)
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		d.Append([]int32{int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(2))},
			int8(r.Intn(2)))
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp, d
}

func TestNewSpaceErrors(t *testing.T) {
	s := testSchema()
	for i := range s.Attrs {
		s.Attrs[i].Protected = false
	}
	if _, err := NewSpace(s); err == nil {
		t.Fatal("expected error for no protected attributes")
	}
	s2 := testSchema()
	big := make([]string, 40)
	for i := range big {
		big[i] = string(rune('a' + i%26))
	}
	s2.Attrs[0].Values = big
	if _, err := NewSpace(s2); err == nil {
		t.Fatal("expected error for oversized cardinality")
	}
}

func TestSpaceBasics(t *testing.T) {
	sp := testSpace(t)
	if sp.Dim() != 3 {
		t.Fatalf("Dim = %d", sp.Dim())
	}
	// (3+1)^3 regions.
	if sp.NumRegions() != 64 {
		t.Fatalf("NumRegions = %d", sp.NumRegions())
	}
}

func TestPatternLevelMask(t *testing.T) {
	p := Pattern{1, Wildcard, 2}
	if p.Level() != 2 {
		t.Fatalf("Level = %d", p.Level())
	}
	if p.Mask() != 0b101 {
		t.Fatalf("Mask = %b", p.Mask())
	}
	if NewPattern(3).Level() != 0 {
		t.Fatal("all-wildcard pattern should be level 0")
	}
}

func TestDominates(t *testing.T) {
	full := Pattern{1, 2, 0}
	cases := []struct {
		g    Pattern
		want bool
	}{
		{Pattern{1, 2, 0}, true},
		{Pattern{1, Wildcard, 0}, true},
		{Pattern{Wildcard, Wildcard, Wildcard}, true},
		{Pattern{0, 2, 0}, false},
		{Pattern{1, 2, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.g, full); got != c.want {
			t.Fatalf("Dominates(%v, %v) = %v", c.g, full, got)
		}
	}
	if Dominates(Pattern{1}, full) {
		t.Fatal("length mismatch must not dominate")
	}
}

func TestDominatesLaws(t *testing.T) {
	sp := testSpace(t)
	// Reflexivity and transitivity on random patterns.
	gen := func(r int64) Pattern {
		rng := stats.NewRNG(r)
		p := NewPattern(sp.Dim())
		for i := range p {
			if rng.Intn(2) == 0 {
				p[i] = int16(rng.Intn(sp.Cards[i]))
			}
		}
		return p
	}
	f := func(seed int64) bool {
		p := gen(seed)
		if !Dominates(p, p) {
			return false
		}
		// Wildcard-ing any slot keeps dominance.
		for i := range p {
			q := p.Clone()
			q[i] = Wildcard
			if !Dominates(q, p) {
				return false
			}
			// And transitively the empty pattern dominates p.
			if !Dominates(NewPattern(len(p)), q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	sp := testSpace(t)
	f := func(a, b, c uint8) bool {
		p := Pattern{
			int16(a%4) - 1, // -1..2
			int16(b%4) - 1,
			int16(c%4) - 1,
		}
		return sp.DecodeKey(sp.Key(p)).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyUniqueAcrossLattice(t *testing.T) {
	sp := testSpace(t)
	seen := map[uint64]bool{}
	n := 0
	for _, m := range sp.Masks() {
		sp.EnumerateNode(m, func(p Pattern) {
			k := sp.Key(p)
			if seen[k] {
				t.Fatalf("duplicate key for %v", p)
			}
			seen[k] = true
			n++
		})
	}
	if n != sp.NumRegions() {
		t.Fatalf("enumerated %d regions, want %d", n, sp.NumRegions())
	}
}

func TestStringAndParse(t *testing.T) {
	sp := testSpace(t)
	p, err := sp.Parse("age", "25-45", "priors", ">3")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.String(p); got != "(age=25-45, priors=>3)" {
		t.Fatalf("String = %q", got)
	}
	if got := sp.String(NewPattern(3)); got != "(*)" {
		t.Fatalf("String(empty) = %q", got)
	}
	if _, err := sp.Parse("charge", "M"); err == nil {
		t.Fatal("non-protected attribute must not parse")
	}
	if _, err := sp.Parse("age", "banana"); err == nil {
		t.Fatal("unknown value must not parse")
	}
	if _, err := sp.Parse("age"); err == nil {
		t.Fatal("odd pair count must not parse")
	}
}

func TestMasksLevelOrder(t *testing.T) {
	sp := testSpace(t)
	ms := sp.Masks()
	if len(ms) != 8 {
		t.Fatalf("masks = %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if bits.OnesCount32(ms[i]) < bits.OnesCount32(ms[i-1]) {
			t.Fatal("masks not in level order")
		}
	}
	if ms[0] != 0 {
		t.Fatal("first mask must be the level-0 node")
	}
}

func TestEnumerateNode(t *testing.T) {
	sp := testSpace(t)
	var got []string
	sp.EnumerateNode(0b011, func(p Pattern) { got = append(got, sp.String(p)) })
	if len(got) != 9 {
		t.Fatalf("enumerated %d patterns, want 9", len(got))
	}
	// Patterns must be fully assigned on slots 0,1 and wildcard on 2.
	sp.EnumerateNode(0b011, func(p Pattern) {
		if p[0] == Wildcard || p[1] == Wildcard || p[2] != Wildcard {
			t.Fatalf("bad pattern %v", p)
		}
	})
}

func TestParents(t *testing.T) {
	sp := testSpace(t)
	p, _ := sp.Parse("age", "25-45", "priors", ">3", "race", "Afr-Am")
	var parents []Pattern
	sp.Parents(p, func(q Pattern) { parents = append(parents, q.Clone()) })
	if len(parents) != 3 {
		t.Fatalf("parents = %d, want 3 (= d)", len(parents))
	}
	for _, q := range parents {
		if !Dominates(q, p) || q.Level() != p.Level()-1 {
			t.Fatalf("bad parent %v", q)
		}
	}
}

func TestNeighborsT1(t *testing.T) {
	sp := testSpace(t)
	p, _ := sp.Parse("age", "25-45", "priors", ">3")
	var got []Pattern
	sp.Neighbors(p, 1, func(q Pattern) { got = append(got, q.Clone()) })
	// (c-1)*d = 2*2 = 4 neighbors — Example 5's count.
	if len(got) != 4 {
		t.Fatalf("neighbors = %d, want 4", len(got))
	}
	for _, q := range got {
		if q.Mask() != p.Mask() {
			t.Fatalf("neighbor %v changed deterministic slots", q)
		}
		diff := 0
		for i := range q {
			if q[i] != p[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("neighbor %v differs in %d slots", q, diff)
		}
	}
}

func TestNeighborsCountFormula(t *testing.T) {
	sp := testSpace(t)
	// A full leaf pattern with all three slots set: (c-1)*d for T=1.
	p := Pattern{0, 1, 2}
	count := func(T int) int {
		n := 0
		sp.Neighbors(p, T, func(Pattern) { n++ })
		return n
	}
	if got := count(1); got != 6 {
		t.Fatalf("T=1 neighbors = %d, want 6", got)
	}
	// T=dim covers all sibling leaf patterns except p: 3^3 - 1 = 26.
	if got := count(3); got != 26 {
		t.Fatalf("T=3 neighbors = %d, want 26", got)
	}
	// T larger than the level is clamped.
	if got := count(99); got != 26 {
		t.Fatalf("T=99 neighbors = %d, want 26", got)
	}
	// Neighbors are unique.
	seen := map[uint64]bool{}
	sp.Neighbors(p, 3, func(q Pattern) {
		k := sp.Key(q)
		if seen[k] {
			t.Fatalf("duplicate neighbor %v", q)
		}
		seen[k] = true
	})

	// Brute force on random small spaces: for every region of every
	// node, wildcards included, and every T in 1..d+1, Neighbors emits
	// each same-mask region that differs from p in 1..min(T, level)
	// slots exactly once, and nothing else.
	r := stats.NewRNG(4)
	for trial := 0; trial < 20; trial++ {
		s := &dataset.Schema{Target: "y"}
		for a, dim := 0, 1+r.Intn(4); a < dim; a++ {
			vals := []string{"a", "b", "c", "d"}[:2+r.Intn(3)]
			s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprint("x", a), Values: vals, Protected: true})
		}
		sp, err := NewSpace(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range sp.Masks() {
			sp.EnumerateNode(mask, func(p Pattern) {
				p = p.Clone()
				for T := 1; T <= sp.Dim()+1; T++ {
					want := map[uint64]bool{}
					sp.EnumerateNode(mask, func(q Pattern) {
						diff := 0
						for i := range q {
							if q[i] != p[i] {
								diff++
							}
						}
						if diff >= 1 && diff <= min(T, p.Level()) {
							want[sp.Key(q)] = true
						}
					})
					got := map[uint64]bool{}
					sp.Neighbors(p, T, func(q Pattern) {
						k := sp.Key(q)
						if got[k] {
							t.Fatalf("cards %v: %v at T=%d emitted %v twice", sp.Cards, p, T, q)
						}
						got[k] = true
					})
					if !maps.Equal(got, want) {
						t.Fatalf("cards %v: %v at T=%d: %d neighbors, brute force %d",
							sp.Cards, p, T, len(got), len(want))
					}
				}
			})
		}
	}
}

func TestCountsRatio(t *testing.T) {
	c := Counts{N: 1279, Pos: 882}
	// Example 4: 882/397 = 2.22.
	if got := c.Ratio(); got < 2.21 || got > 2.23 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := (Counts{N: 5, Pos: 5}).Ratio(); got != -1 {
		t.Fatalf("all-positive Ratio = %v, want -1 sentinel", got)
	}
	if got := (Counts{}).Ratio(); got != -1 {
		t.Fatalf("empty Ratio = %v, want -1", got)
	}
}

// labelCounts converts the class counts of a lattice counted with the
// labels as classes to Counts.
func labelCounts(c []int32) Counts {
	return Counts{N: int(c[0] + c[1]), Pos: int(c[1])}
}

// TestCountAllMatchesBruteForce checks both layouts: the dense cube
// CountAll picks for this small space and the sparse layout, read
// region by region (each node derived from the leaf) and walked (each
// node derived from a parent with one more attribute).
func TestCountAllMatchesBruteForce(t *testing.T) {
	sp, d := testData(t, 300, 42)
	for b, lat := range []*Lattice{sp.CountAll(d, d.Labels, 2), sp.CountSparse(d, d.Labels, 2), sp.CountSparse(d, d.Labels, 2)} {
		if b == 2 {
			masks := sp.Masks()
			slices.Reverse(masks)
			lat.Fill(masks)
		}
		nonEmpty := 0
		for _, m := range sp.Masks() {
			sp.EnumerateNode(m, func(p Pattern) {
				want := sp.CountPattern(d, p)
				if want.N > 0 {
					nonEmpty++
				}
				if got := labelCounts(lat.Counts(p)); got != want || lat.Size(p) != want.N {
					t.Fatalf("layout %d: counts for %v: got %+v want %+v", b, sp.String(p), got, want)
				}
			})
		}
		checkWalk(t, sp, d, lat, nonEmpty)
	}

	// The key encoding's limits: 12 attributes, values up to 29. The
	// 31^12 regions cannot be enumerated, so each region some row
	// projects to is checked, with one sibling that may be empty.
	sp, d = wideData(t, 50, 5)
	lat := sp.CountAll(d, d.Labels, 2)
	if lat.Cube() != nil {
		t.Fatal("a 12-attribute, cardinality-30 space got the dense layout")
	}
	seen := map[uint64]bool{}
	for _, row := range d.Rows {
		for _, m := range sp.Masks() {
			p := NewPattern(sp.Dim())
			for s := range p {
				if m&(1<<uint(s)) != 0 {
					p[s] = int16(row[s])
				}
			}
			if seen[sp.Key(p)] {
				continue
			}
			seen[sp.Key(p)] = true
			sib := p.Clone()
			if s := bits.Len32(m) - 1; s >= 0 {
				sib[s] = (sib[s] + 1) % int16(sp.Cards[s])
			}
			for _, q := range []Pattern{p, sib} {
				if got, want := labelCounts(lat.Counts(q)), sp.CountPattern(d, q); got != want {
					t.Fatalf("wide: counts for %v: got %+v want %+v", sp.String(q), got, want)
				}
			}
		}
	}
	checkWalk(t, sp, d, lat, len(seen))
}

// checkWalk checks that lat's Walk visits nonEmpty regions, each
// non-empty and with the counts of a scan.
func checkWalk(t *testing.T, sp *Space, d *dataset.Dataset, lat *Lattice, nonEmpty int) {
	t.Helper()
	lat.Walk(func(p Pattern, c []int32) bool {
		if got := labelCounts(c); got != sp.CountPattern(d, p) || got.N == 0 {
			t.Fatalf("walked %v with counts %+v", sp.String(p), got)
		}
		nonEmpty--
		return true
	})
	if nonEmpty != 0 {
		t.Fatalf("walk missed %d non-empty regions", nonEmpty)
	}
}

// wideData returns n random rows over 12 protected attributes of
// cardinality 30, whose 31^12 regions no dense table could hold. The
// first slots draw from few values, so leaves repeat.
func wideData(t *testing.T, n int, seed int64) (*Space, *dataset.Dataset) {
	t.Helper()
	s := &dataset.Schema{Target: "y"}
	vals := make([]string, 30)
	for v := range vals {
		vals[v] = fmt.Sprint(v)
	}
	for i := 0; i < MaxDim; i++ {
		s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprintf("a%d", i), Values: vals, Protected: true})
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New(s)
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		row := make([]int32, MaxDim)
		for a := range row {
			row[a] = int32(r.Intn(min(30, 2+a*4)))
		}
		if err := d.Append(row, int8(r.Intn(2))); err != nil {
			t.Fatal(err)
		}
	}
	return sp, d
}

// TestSparseReadsDeriveOnlyTheirNodes reads every region of the 12
// level-1 nodes of a wide space: the sparse layout derives those nodes
// and keeps the leaf, and no other node.
func TestSparseReadsDeriveOnlyTheirNodes(t *testing.T) {
	sp, d := wideData(t, 2000, 8)
	lat := sp.CountAll(d, d.Labels, 2)
	for s := 0; s < sp.Dim(); s++ {
		sp.EnumerateNode(1<<uint(s), func(p Pattern) {
			if got, want := labelCounts(lat.Counts(p)), sp.CountPattern(d, p); got != want {
				t.Fatalf("counts for %v: got %+v want %+v", sp.String(p), got, want)
			}
		})
	}
	derived := 0
	for _, node := range lat.nodes {
		if node != nil {
			derived++
		}
	}
	if derived > 1+sp.Dim() {
		t.Fatalf("reading the level-1 nodes derived %d nodes, want at most %d", derived, 1+sp.Dim())
	}
}

// TestCountsOfEmptyRegionDoNotAllocate reads an empty region of a
// derived sparse node, which returns the shared zero counts.
func TestCountsOfEmptyRegionDoNotAllocate(t *testing.T) {
	sp, d := wideData(t, 100, 3)
	lat := sp.CountAll(d, d.Labels, 2)
	p := NewPattern(sp.Dim())
	p[0], p[11] = 5, 29 // slot 0 draws only 0 and 1
	if lat.Size(p) != 0 {
		t.Fatalf("Size(%v) = %d, want 0", sp.String(p), lat.Size(p))
	}
	if allocs := testing.AllocsPerRun(100, func() { lat.Counts(p) }); allocs != 0 {
		t.Fatalf("Counts of an empty region: %v allocs, want 0", allocs)
	}
}

func TestCountAllTotals(t *testing.T) {
	sp, d := testData(t, 200, 9)
	lat := sp.CountAll(d, d.Labels, 2)
	count := func(p Pattern) Counts { return labelCounts(lat.Counts(p)) }
	root := count(NewPattern(sp.Dim()))
	if root != Totals(d) {
		t.Fatalf("root counts %+v != totals %+v", root, Totals(d))
	}
	// Children of each node partition the parent's instances: summing a
	// node's leaf counts along one attribute reproduces the parent.
	p, _ := sp.Parse("age", "<25")
	var sum Counts
	for v := 0; v < sp.Cards[1]; v++ {
		q := p.Clone()
		q[1] = int16(v)
		c := count(q)
		sum.N += c.N
		sum.Pos += c.Pos
	}
	if sum != count(p) {
		t.Fatalf("children don't sum to parent: %+v vs %+v", sum, count(p))
	}
}

// RowsIn returns the indices of the dataset rows matched by p, by
// scanning every row: the oracle GroupRows is checked against.
func (sp *Space) RowsIn(d *dataset.Dataset, p Pattern) []int {
	var idx []int
	for i, row := range d.Rows {
		if sp.MatchRow(p, row) {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestRowsIn(t *testing.T) {
	sp, d := testData(t, 100, 3)
	p, _ := sp.Parse("race", "Hisp")
	idx := sp.RowsIn(d, p)
	want := sp.CountPattern(d, p)
	if len(idx) != want.N {
		t.Fatalf("RowsIn = %d rows, counts say %d", len(idx), want.N)
	}
	for _, i := range idx {
		if !sp.MatchRow(p, d.Rows[i]) {
			t.Fatalf("row %d does not match", i)
		}
	}
}

// Property: for random data, the optimized neighbor-count identity holds:
// sum(parents) - d*counts(r) equals the direct sum over T=1 neighbors.
func TestParentNeighborIdentity(t *testing.T) {
	sp, d := testData(t, 400, 99)
	lat := sp.CountAll(d, d.Labels, 2)
	count := func(p Pattern) Counts { return labelCounts(lat.Counts(p)) }
	for _, m := range sp.Masks() {
		if m == 0 {
			continue
		}
		sp.EnumerateNode(m, func(p Pattern) {
			rc := count(p)
			var viaParents Counts
			nd := 0
			sp.Parents(p, func(q Pattern) {
				c := count(q)
				viaParents.N += c.N
				viaParents.Pos += c.Pos
				nd++
			})
			viaParents.N -= nd * rc.N
			viaParents.Pos -= nd * rc.Pos
			var direct Counts
			sp.Neighbors(p, 1, func(q Pattern) {
				c := count(q)
				direct.N += c.N
				direct.Pos += c.Pos
			})
			if viaParents != direct {
				t.Fatalf("identity broken at %v: %+v vs %+v", sp.String(p), viaParents, direct)
			}
		})
	}
}
