package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// FuzzIdentifyTraversal checks the optimized traversal against
// IdentifyNaive, which counts every neighbor by scanning the rows, on
// a random schema of at most maxFuzzRegions regions, random rows and
// labels, and a random τ_c, MinSize and Scope. Labels lean positive by
// a random bias, so small regions often have |r−| = 0 and take the −1
// ratio sentinel. Every variant of the optimized traversal must match
// the oracle region for region, counts and ratio bits included, and in
// Explored and Pruned: both lattice layouts at Workers 1, 2 and 4,
// with the same level checkpoints, and per layout a resume from every
// checkpoint at one worker count the input picks. NeighborOps is the
// optimized algorithm's own cost, so it must agree across those
// variants only.
//
// T is any of 1..|X|+1. Half the inputs draw T = 1 and a quarter
// draw T = |X| or |X|+1, the settings the paper evaluates; the last
// quarter draws T uniformly from 1..|X|+1, so 1 < T < |X| reaches the
// triangular inversion in neighborViaDominating.
func FuzzIdentifyTraversal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 0, 1, 0, 0, 1, 60, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{4, 3, 2, 4, 5, 1, 2, 2, 1, 90, 70, 2, 200, 17, 33, 65, 129, 7, 12, 99, 1, 2, 3, 5, 8, 13, 21, 34, 55})
	// |X| = 3 of cardinality 3, τ_c = 0, MinSize 8, lattice scope,
	// T = 1, and 20 rows: a0 = 0 in 14 of them, 1 in 6, never 2. The
	// level-1 prefixes (a0=1) and (a0=2) are under MinSize, so the
	// scans of level 2's three nodes skip sub-blocks, concurrently at
	// Workers 2 and 4, on both layouts.
	skip := []byte{2, 1, 1, 1, 0, 7, 0, 0, 1, 20, 0}
	for r := byte(0); r < 20; r++ {
		skip = append(skip, r/14, r%3, r/3%3, r%4)
	}
	f.Add(skip)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		s := in.schema()
		capRegions(s, maxFuzzRegions)
		dim := len(s.Attrs)
		cfg := Config{TauC: float64(in.next()%8) / 4, MinSize: 1 + in.next()%8, Scope: Scope(in.next() % 3), T: 1}
		switch in.next() % 4 {
		case 1:
			cfg.T = dim + in.next()%2
		case 3:
			cfg.T = 1 + in.next()%(dim+1)
		}
		bias := 1 + in.next()%3 // a label is positive with chance bias/4
		d := dataset.New(s)
		for r, rows := 0, in.next()%64+in.next()%64; r < rows; r++ {
			row := in.row(s)
			var label int8
			if in.next()%4 < bias {
				label = 1
			}
			d.Append(row, label)
		}
		name := fmt.Sprintf("|X|=%d rows=%d %+v", dim, d.Len(), cfg)
		want, err := IdentifyNaive(d, cfg)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		var ops int
		check := func(variant string, got *Result) {
			t.Helper()
			sameAsOracle(t, name+" "+variant, got, want)
			if ops == 0 {
				ops = got.NeighborOps
			} else if got.NeighborOps != ops {
				t.Fatalf("%s %s: NeighborOps %d, other optimized variants %d", name, variant, got.NeighborOps, ops)
			}
		}
		var cuts []LevelSnapshot
		workerCounts := []int{1, 2, 4}
		for i, bk := range backends {
			for _, workers := range workerCounts {
				variant := fmt.Sprintf("%s/workers=%d", bk.name, workers)
				var snaps []LevelSnapshot
				c := cfg
				c.Workers = workers
				c.OnLevel = func(_ context.Context, snap LevelSnapshot) error {
					snaps = append(snaps, snap)
					return nil
				}
				check(variant, identifyOn(t, d, bk.b, c))
				if cuts == nil {
					cuts = snaps
				} else if !reflect.DeepEqual(snaps, cuts) {
					t.Fatalf("%s %s: level checkpoints differ from dense/workers=1", name, variant)
				}
			}
			// The checkpoints match at every worker count, so each
			// layout resumes from every cut at one of them, which the
			// input picks.
			c := cfg
			c.Workers = workerCounts[(d.Len()+i)%len(workerCounts)]
			for k := range cuts {
				c.Resume = cuts[:k+1]
				check(fmt.Sprintf("%s/workers=%d/resumed after %d levels", bk.name, c.Workers, k+1), identifyOn(t, d, bk.b, c))
			}
		}
	})
}

// maxFuzzRegions caps the lattice of a FuzzIdentifyTraversal input.
// IdentifyNaive and the dense cube cost in proportion to the regions,
// and a 7^6-region input takes ~0.1 s an exec, which stalls the fuzzer
// for its whole minimisation. The cap still admits 6 attributes of
// cardinality 3 and 4 of cardinality 6.
const maxFuzzRegions = 4096

// capRegions drops the last value of the widest attribute of s until
// its lattice has at most limit regions.
func capRegions(s *dataset.Schema, limit int) {
	for {
		n, widest := 1, 0
		for i, a := range s.Attrs {
			n *= len(a.Values) + 1
			if len(a.Values) > len(s.Attrs[widest].Values) {
				widest = i
			}
		}
		if n <= limit {
			return
		}
		a := &s.Attrs[widest]
		a.Values = a.Values[:len(a.Values)-1]
	}
}

// sameAsOracle asserts an optimized Result equals the naïve oracle's
// in every region, bit for bit, and in Explored and Pruned.
func sameAsOracle(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: %d regions, naive %d", name, len(got.Regions), len(want.Regions))
	}
	for i, g := range got.Regions {
		w := want.Regions[i]
		if !g.Pattern.Equal(w.Pattern) || g.Counts != w.Counts || g.NeighborCounts != w.NeighborCounts ||
			math.Float64bits(g.Ratio) != math.Float64bits(w.Ratio) ||
			math.Float64bits(g.NeighborRatio) != math.Float64bits(w.NeighborRatio) {
			t.Fatalf("%s: region %d: %+v, naive %+v", name, i, g, w)
		}
	}
	if got.Explored != want.Explored || got.Pruned != want.Pruned {
		t.Fatalf("%s: explored/pruned %d/%d, naive %d/%d", name, got.Explored, got.Pruned, want.Explored, want.Pruned)
	}
}

// TestOptimizedExactAtIntermediateT pins a 1 < T < |X| case on the
// 3×3×3 test space at T = 2. Every cell holds 20 rows; a cell at
// Hamming distance h from the centre (25-45, 1-3, Afr-Am) holds 10, 16,
// 4 or 10 positives for h = 0, 1, 2, 3. The centre's Def. 4
// neighborhood is its 6 cells at distance 1 and 12 at distance 2:
// 144 positives to 216 negatives, a ratio of 2/3 against the centre's
// 1, so the centre is biased at τ_c = 0.3. Summing the centre's three
// grandparents counts each distance-1 row twice and reads a ratio of
// 1, which misses it.
func TestOptimizedExactAtIntermediateT(t *testing.T) {
	d := dataset.New(testSchema())
	positives := []int{10, 16, 4, 10}
	for c := 0; c < 27; c++ {
		row := []int32{int32(c % 3), int32(c / 3 % 3), int32(c / 9)}
		h := 0
		for _, v := range row {
			if v != 1 {
				h++
			}
		}
		for i := 0; i < 20; i++ {
			var label int8
			if i < positives[h] {
				label = 1
			}
			d.Append(row, label)
		}
	}
	cfg := Config{TauC: 0.3, T: 2, MinSize: 5}
	want := mustIdentify(t, IdentifyNaive, d, cfg)
	centre, _ := want.Space.Parse("age", "25-45", "priors", "1-3", "race", "Afr-Am")
	if !want.Contains(centre) {
		t.Fatal("naive identification missed the centre region")
	}
	for _, bk := range backends {
		for _, workers := range []int{1, 2} {
			c := cfg
			c.Workers = workers
			sameAsOracle(t, fmt.Sprintf("%s/workers=%d", bk.name, workers), identifyOn(t, d, bk.b, c), want)
		}
	}
}
