package divexplorer

import (
	"math"

	"repro/internal/pattern"
)

// This file adds the report post-processing DivExplorer offers on top
// of raw mining: redundancy pruning (a subgroup whose divergence is
// already explained by a more general subgroup carries no new
// information) and top-k selection for human consumption.

// TopK returns the k most divergent subgroups (fewer if the report is
// smaller), preserving the ranking.
func (r *Report) TopK(k int) []Subgroup {
	if k > len(r.Subgroups) {
		k = len(r.Subgroups)
	}
	if k < 0 {
		k = 0
	}
	return r.Subgroups[:k]
}

// PruneRedundant drops every subgroup some strictly more general mined
// subgroup already explains: g is redundant when an ancestor g' ≻ g has
// |Δγ_g − Δγ_g'| <= eps. The most general subgroups always survive, so
// the pruned report highlights where in the lattice divergence actually
// emerges.
func (r *Report) PruneRedundant(eps float64) []Subgroup {
	// Index mined subgroups by key for ancestor lookups.
	byKey := make(map[uint64]Subgroup, len(r.Subgroups))
	for _, g := range r.Subgroups {
		byKey[r.Space.Key(g.Pattern)] = g
	}
	var out []Subgroup
	for _, g := range r.Subgroups {
		if !r.ancestorExplains(g, byKey, eps) {
			out = append(out, g)
		}
	}
	return out
}

// ancestorExplains reports whether any mined strict ancestor of g has a
// divergence within eps of g's.
func (r *Report) ancestorExplains(g Subgroup, byKey map[uint64]Subgroup, eps float64) bool {
	// Every non-empty proper subset of g's items is a strict ancestor
	// other than the root.
	mask := g.Pattern.Mask()
	q := make(pattern.Pattern, len(g.Pattern))
	for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
		for i, v := range g.Pattern {
			q[i] = pattern.Wildcard
			if sub&(1<<uint(i)) != 0 {
				q[i] = v
			}
		}
		if anc, ok := byKey[r.Space.Key(q)]; ok && math.Abs(g.Divergence-anc.Divergence) <= eps {
			return true
		}
	}
	return false
}
