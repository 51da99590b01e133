package pattern

import "math"

// This file implements Def. 4's distance metric in full generality: the
// Euclidean distance between two regions with identical deterministic
// attributes is the l2 norm of their per-attribute value distances.
// In the basic setting every pair of distinct values is one unit apart;
// the refinement for attributes with a meaningful order (age buckets,
// income buckets) uses the natural numeric spacing |i − j| of the value
// codes. Neighbors(p, T) is the special case of unit distances with an
// integer radius; NeighborsEuclidean(p, 1) is the ordered refinement
// of Def. 4 at T = 1: an ordered attribute moves to an adjacent value
// code, an unordered one to any other value.

// Distance returns the Euclidean distance between two regions under
// the refined metric, or NaN if the regions do not share the same
// deterministic attributes (the paper deems such regions incomparable).
func (sp *Space) Distance(p, q Pattern) float64 {
	if p.Mask() != q.Mask() {
		return math.NaN()
	}
	var sum float64
	for i := range p {
		if p[i] == Wildcard {
			continue
		}
		d := sp.valueDistance(i, p[i], q[i])
		sum += d * d
	}
	return math.Sqrt(sum)
}

// valueDistance is the per-attribute distance: natural spacing for
// ordered attributes, unit distance otherwise.
func (sp *Space) valueDistance(slot int, a, b int16) float64 {
	if a == b {
		return 0
	}
	if sp.Ordered[slot] {
		return math.Abs(float64(a) - float64(b))
	}
	return 1
}

// NeighborsEuclidean calls f for every region within Euclidean
// distance T of p (excluding p itself) under the refined metric. The
// enumeration prunes by accumulated squared distance, so the cost is
// proportional to the ball volume rather than the node size. f receives
// a reused buffer; Clone to retain.
func (sp *Space) NeighborsEuclidean(p Pattern, T float64, f func(Pattern)) {
	if T <= 0 {
		return
	}
	slots := make([]int, 0, sp.Dim())
	for i, v := range p {
		if v != Wildcard {
			slots = append(slots, i)
		}
	}
	t2 := T * T
	q := p.Clone()
	var walk func(k int, used float64, changed bool)
	walk = func(k int, used float64, changed bool) {
		if k == len(slots) {
			if changed {
				f(q)
			}
			return
		}
		s := slots[k]
		for v := 0; v < sp.Cards[s]; v++ {
			d := sp.valueDistance(s, p[s], int16(v))
			d2 := d * d
			if used+d2 > t2+1e-12 {
				continue
			}
			q[s] = int16(v)
			walk(k+1, used+d2, changed || int16(v) != p[s])
		}
		q[s] = p[s]
	}
	walk(0, 0, false)
}
