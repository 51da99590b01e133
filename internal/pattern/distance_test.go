package pattern

import (
	"math"
	"testing"
)

func TestDistanceBasics(t *testing.T) {
	sp := testSpace(t) // age (ordered, 3), priors (ordered, 3), race (unordered, 3)
	p, _ := sp.Parse("age", "<25", "race", "Cauc")
	q, _ := sp.Parse("age", ">45", "race", "Cauc")
	// age codes 0 and 2, ordered: distance 2.
	if got := sp.Distance(p, q); got != 2 {
		t.Fatalf("Distance = %v, want 2", got)
	}
	r, _ := sp.Parse("age", "<25", "race", "Hisp")
	// race unordered: unit distance.
	if got := sp.Distance(p, r); got != 1 {
		t.Fatalf("Distance = %v, want 1", got)
	}
	s, _ := sp.Parse("age", ">45", "race", "Hisp")
	// sqrt(2² + 1²).
	if got := sp.Distance(p, s); math.Abs(got-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("Distance = %v, want sqrt(5)", got)
	}
	if got := sp.Distance(p, p); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

func TestDistanceIncomparableMasks(t *testing.T) {
	sp := testSpace(t)
	p, _ := sp.Parse("age", "<25")
	q, _ := sp.Parse("priors", "0")
	if got := sp.Distance(p, q); !math.IsNaN(got) {
		t.Fatalf("different-dimension regions must be incomparable, got %v", got)
	}
}

func TestDistanceMetricLaws(t *testing.T) {
	sp := testSpace(t)
	// Symmetry and triangle inequality over all sibling pairs of one
	// node.
	var ps []Pattern
	sp.EnumerateNode(0b101, func(p Pattern) { ps = append(ps, p.Clone()) })
	for _, a := range ps {
		for _, b := range ps {
			dab := sp.Distance(a, b)
			if math.Abs(dab-sp.Distance(b, a)) > 1e-12 {
				t.Fatal("distance not symmetric")
			}
			if a.Equal(b) != (dab == 0) {
				t.Fatal("identity of indiscernibles violated")
			}
			for _, c := range ps {
				if dab > sp.Distance(a, c)+sp.Distance(c, b)+1e-12 {
					t.Fatal("triangle inequality violated")
				}
			}
		}
	}
}

func TestNeighborsEuclideanMatchesUnitNeighbors(t *testing.T) {
	// With no ordered attributes, the Euclidean radius-1 ball equals
	// Neighbors(p, 1), and radius sqrt(dim) covers every sibling.
	s := testSchema()
	for i := range s.Attrs {
		s.Attrs[i].Ordered = false
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	p := Pattern{0, 1, 2}
	collect := func(f func(func(Pattern))) map[uint64]bool {
		out := map[uint64]bool{}
		f(func(q Pattern) {
			if out[sp.Key(q)] {
				t.Fatalf("duplicate neighbor %v", q)
			}
			out[sp.Key(q)] = true
		})
		return out
	}
	ball1 := collect(func(f func(Pattern)) { sp.NeighborsEuclidean(p, 1, f) })
	unit1 := collect(func(f func(Pattern)) { sp.Neighbors(p, 1, f) })
	if len(ball1) != len(unit1) {
		t.Fatalf("radius-1 ball %d != T=1 neighbors %d", len(ball1), len(unit1))
	}
	for k := range unit1 {
		if !ball1[k] {
			t.Fatal("ball misses a unit neighbor")
		}
	}
	all := collect(func(f func(Pattern)) { sp.NeighborsEuclidean(p, math.Sqrt(3), f) })
	if len(all) != 26 { // 3^3 - 1 siblings
		t.Fatalf("full-radius ball = %d, want 26", len(all))
	}
}

func TestNeighborsEuclideanOrderedRefinement(t *testing.T) {
	sp := testSpace(t)
	// (age=25-45) with radius 1: ordered age allows both adjacent
	// buckets; radius 1 on (age=<25) allows only one.
	mid, _ := sp.Parse("age", "25-45")
	n := 0
	sp.NeighborsEuclidean(mid, 1, func(Pattern) { n++ })
	if n != 2 {
		t.Fatalf("middle bucket radius-1 neighbors = %d, want 2", n)
	}
	edge, _ := sp.Parse("age", "<25")
	n = 0
	sp.NeighborsEuclidean(edge, 1, func(Pattern) { n++ })
	if n != 1 {
		t.Fatalf("edge bucket radius-1 neighbors = %d, want 1", n)
	}
	// Radius 2 from the edge reaches the far bucket too.
	n = 0
	sp.NeighborsEuclidean(edge, 2, func(Pattern) { n++ })
	if n != 2 {
		t.Fatalf("edge bucket radius-2 neighbors = %d, want 2", n)
	}
}

func TestNeighborsEuclideanAllWithinRadius(t *testing.T) {
	sp := testSpace(t)
	p := Pattern{1, 2, 0}
	for _, T := range []float64{0.5, 1, 1.5, 2, 3} {
		sp.NeighborsEuclidean(p, T, func(q Pattern) {
			if d := sp.Distance(p, q); d > T+1e-9 || d == 0 {
				t.Fatalf("radius %v emitted %v at distance %v", T, q, d)
			}
		})
		// Completeness: brute-force check against full enumeration.
		want := 0
		sp.EnumerateNode(p.Mask(), func(q Pattern) {
			if d := sp.Distance(p, q); d > 0 && d <= T+1e-9 {
				want++
			}
		})
		got := 0
		sp.NeighborsEuclidean(p, T, func(Pattern) { got++ })
		if got != want {
			t.Fatalf("radius %v: got %d neighbors, brute force says %d", T, got, want)
		}
	}
}

func TestNeighborsEuclideanZeroRadius(t *testing.T) {
	sp := testSpace(t)
	p := Pattern{0, 0, 0}
	sp.NeighborsEuclidean(p, 0, func(Pattern) {
		t.Fatal("zero radius must emit nothing")
	})
}
