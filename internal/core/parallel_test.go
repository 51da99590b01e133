package core

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

func TestParallelIdentifyMatchesSequential(t *testing.T) {
	d := synth.CompasN(4000, 17)
	for _, workers := range []int{2, 4, 8} {
		seq := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1})
		par := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1, Workers: workers})
		assertSameRegions(t, seq, par)
		if seq.Explored != par.Explored || seq.NeighborOps != par.NeighborOps {
			t.Fatalf("workers=%d: work counters differ (%d/%d vs %d/%d)",
				workers, seq.Explored, seq.NeighborOps, par.Explored, par.NeighborOps)
		}
	}
}

func TestParallelIdentifyScopes(t *testing.T) {
	d := synth.CompasN(3000, 19)
	for _, scope := range []Scope{Lattice, Leaf, Top} {
		seq := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1, Scope: scope})
		par := mustIdentify(t, IdentifyOptimized, d, Config{TauC: 0.1, T: 1, Scope: scope, Workers: 4})
		assertSameRegions(t, seq, par)
	}
}

// TestPreloadMatchesLazyTables compares each backend's preloaded counts
// with the sparse backend's lazily counted node tables.
func TestPreloadMatchesLazyTables(t *testing.T) {
	d := synth.CompasN(2000, 23)
	lazy := newHierarchyOn(t, d, sparse)
	for _, bk := range backends {
		eager := newHierarchyOn(t, d, bk.b)
		if err := eager.Preload(4); err != nil {
			t.Fatal(err)
		}
		for _, mask := range lazy.MasksForScope(Lattice) {
			if a, b := lazy.Node(mask), eager.Node(mask); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s mask %b: lazy %v, preloaded %v", bk.name, mask, a, b)
			}
		}
		if lazy.Totals() != eager.Totals() {
			t.Fatalf("%s: totals differ", bk.name)
		}
	}
}
