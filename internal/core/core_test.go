package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/synth"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "age", Values: []string{"<25", "25-45", ">45"}, Protected: true, Ordered: true},
			{Name: "priors", Values: []string{"0", "1-3", ">3"}, Protected: true, Ordered: true},
			{Name: "race", Values: []string{"Cauc", "Afr-Am", "Hisp"}, Protected: true},
		},
	}
}

func randomData(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	d := dataset.New(testSchema())
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		d.Append([]int32{int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(3))}, int8(r.Intn(2)))
	}
	return d
}

// biasedData builds a dataset where exactly one region — (age=25-45,
// priors=>3) — is flooded with positives while everything else is
// balanced, the textbook IBS of Examples 4-6.
func biasedData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New(testSchema())
	r := stats.NewRNG(11)
	for i := 0; i < 4000; i++ {
		row := []int32{int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(3))}
		var label int8
		if row[0] == 1 && row[1] == 2 {
			// ~69% positive: ratio ≈ 2.2 like Example 4.
			if r.Float64() < 0.69 {
				label = 1
			}
		} else {
			// ~39% positive: ratio ≈ 0.64 like Example 5.
			if r.Float64() < 0.39 {
				label = 1
			}
		}
		d.Append(row, label)
	}
	return d
}

func mustIdentify(t *testing.T, f func(*dataset.Dataset, Config) (*Result, error), d *dataset.Dataset, cfg Config) *Result {
	t.Helper()
	res, err := f(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	d := randomData(t, 100, 1)
	if _, err := IdentifyOptimized(d, Config{TauC: -1, T: 1}); err == nil {
		t.Fatal("negative TauC must error")
	}
	if _, err := IdentifyOptimized(d, Config{TauC: 0.1, T: 0}); err == nil {
		t.Fatal("T=0 must error")
	}
}

func TestScopeString(t *testing.T) {
	if Lattice.String() != "Lattice" || Leaf.String() != "Leaf" || Top.String() != "Top" {
		t.Fatal("scope names")
	}
	if Scope(9).String() == "" {
		t.Fatal("unknown scope should still print")
	}
}

func TestParseScope(t *testing.T) {
	cases := map[string]Scope{
		"lattice": Lattice,
		"Leaf":    Leaf,
		"TOP":     Top,
	}
	for in, want := range cases {
		got, err := ParseScope(in)
		if err != nil || got != want {
			t.Fatalf("ParseScope(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScope("sideways"); err == nil {
		t.Fatal("unknown scope must error")
	}
}

func TestIdentifyFindsInjectedIBS(t *testing.T) {
	d := biasedData(t)
	cfg := Config{TauC: 0.3, T: 1}
	res := mustIdentify(t, IdentifyOptimized, d, cfg)
	sp := res.Space
	want, err := sp.Parse("age", "25-45", "priors", ">3")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(want) {
		for _, r := range res.Regions {
			t.Logf("found %s ratio=%.2f nratio=%.2f", sp.String(r.Pattern), r.Ratio, r.NeighborRatio)
		}
		t.Fatal("the injected biased region was not identified")
	}
	// Its evidence should resemble the running example.
	for _, r := range res.Regions {
		if sp.Key(r.Pattern) == sp.Key(want) {
			if r.Ratio < 1.6 || r.NeighborRatio > 1.0 {
				t.Fatalf("ratios off: %v vs %v", r.Ratio, r.NeighborRatio)
			}
			if r.Gap() <= cfg.TauC {
				t.Fatal("gap must exceed τ_c")
			}
		}
	}
}

func TestIdentifyBalancedDataHasNoIBS(t *testing.T) {
	// With a generous τ_c, uniform random data has no biased regions.
	d := randomData(t, 5000, 3)
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.9, T: 1})
	if len(res.Regions) != 0 {
		t.Fatalf("expected empty IBS, got %d regions", len(res.Regions))
	}
}

func TestNaiveOptimizedEquivalenceT1(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		d := randomData(t, 800, seed)
		for _, tau := range []float64{0.05, 0.2, 0.5} {
			a := mustIdentify(t, IdentifyNaive, d, Config{TauC: tau, T: 1, MinSize: 10})
			b := mustIdentify(t, IdentifyOptimized, d, Config{TauC: tau, T: 1, MinSize: 10})
			assertSameRegions(t, a, b)
		}
	}
}

func TestNaiveOptimizedEquivalenceTMax(t *testing.T) {
	d := randomData(t, 800, 5)
	// T = |X| = 3: both must agree (all-siblings neighborhood).
	a := mustIdentify(t, IdentifyNaive, d, Config{TauC: 0.1, T: 3, MinSize: 10})
	b := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 3, MinSize: 10})
	assertSameRegions(t, a, b)
}

func assertSameRegions(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Regions) != len(b.Regions) {
		t.Fatalf("naive found %d regions, optimized %d", len(a.Regions), len(b.Regions))
	}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		if !ra.Pattern.Equal(rb.Pattern) {
			t.Fatalf("region %d: %v vs %v", i, ra.Pattern, rb.Pattern)
		}
		if ra.Counts != rb.Counts || ra.NeighborCounts != rb.NeighborCounts {
			t.Fatalf("region %d counts differ: %+v vs %+v", i, ra, rb)
		}
		if math.Abs(ra.NeighborRatio-rb.NeighborRatio) > 1e-12 {
			t.Fatalf("region %d neighbor ratio differs", i)
		}
	}
}

func TestOptimizedDoesLessNeighborWork(t *testing.T) {
	d := randomData(t, 3000, 9)
	a := mustIdentify(t, IdentifyNaive, d, Config{TauC: 0.1, T: 1, MinSize: 5})
	b := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1, MinSize: 5})
	if a.Explored != b.Explored {
		t.Fatalf("explored counts differ: %d vs %d", a.Explored, b.Explored)
	}
	// Naive: (c-1)·d per region = 2d; optimized: d per region.
	if b.NeighborOps*2 > a.NeighborOps+1 {
		t.Fatalf("optimized neighbor ops %d not < half of naive %d", b.NeighborOps, a.NeighborOps)
	}
}

func TestScopes(t *testing.T) {
	d := biasedData(t)
	leaf := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1, Scope: Leaf, MinSize: 20})
	for _, r := range leaf.Regions {
		if r.Pattern.Level() != 3 {
			t.Fatalf("Leaf scope produced level-%d region", r.Pattern.Level())
		}
	}
	top := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.05, T: 1, Scope: Top, MinSize: 20})
	for _, r := range top.Regions {
		if r.Pattern.Level() != 1 {
			t.Fatalf("Top scope produced level-%d region", r.Pattern.Level())
		}
	}
	lattice := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1, MinSize: 20})
	if len(lattice.Regions) < len(leaf.Regions) {
		t.Fatal("lattice must cover at least the leaf regions")
	}
}

func TestMinSizeFilter(t *testing.T) {
	d := biasedData(t)
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1, MinSize: 100000})
	if res.Explored != 0 || len(res.Regions) != 0 {
		t.Fatal("nothing should pass an absurd size threshold")
	}
	// Default k=30 is applied when MinSize is zero.
	res2 := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1})
	for _, r := range res2.Regions {
		if r.Counts.N <= DefaultMinSize {
			t.Fatalf("region of size %d should have been filtered", r.Counts.N)
		}
	}
}

func TestContainsAndDominates(t *testing.T) {
	d := biasedData(t)
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.3, T: 1})
	sp := res.Space
	inIBS, _ := sp.Parse("age", "25-45", "priors", ">3")
	if !res.Contains(inIBS) {
		t.Skip("injected region not found; covered by TestIdentifyFindsInjectedIBS")
	}
	parent, _ := sp.Parse("age", "25-45")
	if !res.DominatesSignificant(parent) {
		t.Fatal("(age=25-45) dominates the biased region")
	}
	if res.DominatesSignificant(inIBS) && !dominatesOther(res, inIBS) {
		t.Fatal("a region should not dominate itself")
	}
	other, _ := sp.Parse("race", "Hisp")
	if res.Contains(other) {
		t.Fatal("unexpected IBS membership")
	}
}

func dominatesOther(res *Result, p pattern.Pattern) bool {
	for _, r := range res.Regions {
		if !r.Pattern.Equal(p) && pattern.Dominates(p, r.Pattern) {
			return true
		}
	}
	return false
}

func TestHierarchyCachingAndInvalidate(t *testing.T) {
	d := randomData(t, 500, 21)
	h, err := NewHierarchy(d)
	if err != nil {
		t.Fatal(err)
	}
	t1 := h.Node(0b011)
	t2 := h.Node(0b011)
	if len(t1) == 0 || !reflect.DeepEqual(t1, t2) {
		t.Fatal("cache broken")
	}
	tot := h.Totals()
	if tot.N != 500 {
		t.Fatalf("totals %+v", tot)
	}
	// Swap in a 5-row subset; SetData must drop every stale count.
	sub := d.Subset([]int{0, 1, 2, 3, 4})
	h.SetData(sub)
	if h.Totals().N != 5 {
		t.Fatalf("totals after SetData = %+v", h.Totals())
	}
	fresh, err := NewHierarchy(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := h.Node(0b011), fresh.Node(0b011); !reflect.DeepEqual(got, want) {
		t.Fatalf("node after SetData %v, want a fresh hierarchy's %v", got, want)
	}
}

func TestRegionGapAndSentinel(t *testing.T) {
	r := Region{Ratio: 2.2, NeighborRatio: 0.64}
	if g := r.Gap(); math.Abs(g-1.56) > 1e-9 {
		t.Fatalf("Gap = %v", g)
	}
	// All-positive region: ratio −1 participates numerically (Def. 3).
	r2 := Region{Ratio: -1, NeighborRatio: 0.5}
	if r2.Gap() != 1.5 {
		t.Fatalf("sentinel gap = %v", r2.Gap())
	}
}

func TestAllPositiveRegionUsesSentinel(t *testing.T) {
	d := dataset.New(testSchema())
	r := stats.NewRNG(2)
	for i := 0; i < 2000; i++ {
		row := []int32{int32(r.Intn(3)), int32(r.Intn(3)), int32(r.Intn(3))}
		label := int8(r.Intn(2))
		if row[0] == 0 && row[1] == 0 {
			label = 1 // region with zero negatives
		}
		d.Append(row, label)
	}
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.5, T: 1})
	p, _ := res.Space.Parse("age", "<25", "priors", "0")
	found := false
	for _, reg := range res.Regions {
		if res.Space.Key(reg.Pattern) == res.Space.Key(p) {
			found = true
			if reg.Ratio != -1 {
				t.Fatalf("expected sentinel ratio, got %v", reg.Ratio)
			}
		}
	}
	if !found {
		t.Fatal("all-positive region should be flagged against a balanced neighborhood")
	}
}

func TestIdentifyOnSyntheticCompas(t *testing.T) {
	d := synth.Compas(1)
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1})
	if len(res.Regions) == 0 {
		t.Fatal("the synthetic COMPAS dataset must contain IBS regions")
	}
	// The injected (race=Afr-Am, sex=Male) skew lives in the protected
	// space {age, race, sex}; some region over race/sex must be flagged.
	sp := res.Space
	found := false
	for _, r := range res.Regions {
		if sp.String(r.Pattern) == "(race=Afr-Am, sex=Male)" {
			found = true
			if r.Ratio <= r.NeighborRatio {
				t.Fatal("Afr-Am males must be positive-skewed")
			}
		}
	}
	if !found {
		t.Fatal("(race=Afr-Am, sex=Male) should be in the IBS")
	}
}

func TestAncestorsTLevelsUp(t *testing.T) {
	d := randomData(t, 100, 31)
	h, err := NewHierarchy(d)
	if err != nil {
		t.Fatal(err)
	}
	p := pattern.Pattern{0, 1, 2}
	var got []pattern.Pattern
	h.ancestorsTLevelsUp(p, 2, func(q pattern.Pattern) { got = append(got, q.Clone()) })
	// C(3,2) = 3 ancestors two levels up.
	if len(got) != 3 {
		t.Fatalf("ancestors = %d, want 3", len(got))
	}
	for _, q := range got {
		if q.Level() != 1 || !pattern.Dominates(q, p) {
			t.Fatalf("bad ancestor %v", q)
		}
	}
}

func TestDeterministicRegionOrder(t *testing.T) {
	d := biasedData(t)
	a := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1})
	b := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1})
	if len(a.Regions) != len(b.Regions) {
		t.Fatal("non-deterministic result size")
	}
	for i := range a.Regions {
		if !a.Regions[i].Pattern.Equal(b.Regions[i].Pattern) {
			t.Fatal("non-deterministic region order")
		}
	}
	// Leaf-first ordering.
	for i := 1; i < len(a.Regions); i++ {
		if a.Regions[i].Pattern.Level() > a.Regions[i-1].Pattern.Level() {
			t.Fatal("regions not ordered by descending level")
		}
	}
}

func TestResultNodesAndTree(t *testing.T) {
	d := biasedData(t)
	res := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.2, T: 1})
	nodes := res.Nodes()
	if len(nodes) == 0 {
		t.Fatal("no nodes")
	}
	total := 0
	for i, n := range nodes {
		total += len(n.Biased)
		if len(n.Attrs) != n.Level {
			t.Fatalf("node %d: %d attrs for level %d", i, len(n.Attrs), n.Level)
		}
		if i > 0 && n.Level > nodes[i-1].Level {
			t.Fatal("nodes not ordered leaf-first")
		}
		for _, r := range n.Biased {
			if r.Pattern.Mask() != n.Mask {
				t.Fatal("region filed under wrong node")
			}
		}
	}
	if total != len(res.Regions) {
		t.Fatalf("nodes cover %d of %d regions", total, len(res.Regions))
	}
	byLevel := res.BiasedByLevel()
	sum := 0
	for _, c := range byLevel {
		sum += c
	}
	if sum != len(res.Regions) {
		t.Fatal("BiasedByLevel accounting")
	}
	var buf strings.Builder
	if err := res.RenderTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Implicit Biased Set") || !strings.Contains(out, "ratio_r") {
		t.Fatalf("tree render:\n%s", out)
	}
}
