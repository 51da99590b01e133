// Package pattern implements the intersectional region machinery of the
// paper: patterns over the protected attribute space X (conjunctions of
// attribute = value with wildcards), the dominance relation (Def. 2),
// the region hierarchy of Fig. 1, and fast counting of positive/negative
// instances for every region.
//
// A Pattern is a fixed-width vector with one slot per protected
// attribute; slot value -1 is the non-deterministic element "a = X".
// Patterns are interned into compact uint64 keys so the count tables of
// the exponentially large lattice stay cheap to index.
package pattern

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/dataset"
)

// MaxDim is the largest supported number of protected attributes. The
// key encoding packs 5 bits per attribute slot into a uint64, which
// caps the dimensionality at 12 and attribute cardinalities at 30 —
// comfortably above the paper's maximum of 8 attributes.
const MaxDim = 12

// maxCard is the largest supported attribute cardinality (5-bit slots,
// with 0 reserved for the wildcard).
const maxCard = 30

// Space describes the intersectional space of the protected attributes
// of a schema: which schema columns participate, their cardinalities,
// and their names (for printing).
type Space struct {
	Schema  *dataset.Schema
	AttrIdx []int // schema attribute indices, in schema order
	Cards   []int
	Names   []string
}

// NewSpace builds the Space from the schema's protected attributes.
func NewSpace(s *dataset.Schema) (*Space, error) {
	sp := &Space{Schema: s}
	for i := range s.Attrs {
		if !s.Attrs[i].Protected {
			continue
		}
		if c := s.Attrs[i].Cardinality(); c > maxCard {
			return nil, fmt.Errorf("pattern: attribute %s cardinality %d exceeds %d",
				s.Attrs[i].Name, c, maxCard)
		}
		sp.AttrIdx = append(sp.AttrIdx, i)
		sp.Cards = append(sp.Cards, s.Attrs[i].Cardinality())
		sp.Names = append(sp.Names, s.Attrs[i].Name)
	}
	if len(sp.AttrIdx) == 0 {
		return nil, fmt.Errorf("pattern: schema has no protected attributes")
	}
	if len(sp.AttrIdx) > MaxDim {
		return nil, fmt.Errorf("pattern: %d protected attributes exceed MaxDim %d",
			len(sp.AttrIdx), MaxDim)
	}
	return sp, nil
}

// Dim returns |X|, the number of protected attributes.
func (sp *Space) Dim() int { return len(sp.AttrIdx) }

// NumRegions returns the total number of regions in the hierarchy,
// Π (c_i + 1), including the level-0 whole-dataset region.
func (sp *Space) NumRegions() int {
	n := 1
	for _, c := range sp.Cards {
		n *= c + 1
	}
	return n
}

// Pattern is a region descriptor: one slot per protected attribute,
// holding a value code or -1 for the wildcard.
type Pattern []int16

// Wildcard is the non-deterministic slot value ("a = X").
const Wildcard int16 = -1

// NewPattern returns the all-wildcard pattern of dimension dim (the
// level-0 region: the entire dataset).
func NewPattern(dim int) Pattern {
	p := make(Pattern, dim)
	for i := range p {
		p[i] = Wildcard
	}
	return p
}

// Clone copies the pattern.
func (p Pattern) Clone() Pattern { return append(Pattern(nil), p...) }

// Level returns d, the number of deterministic elements.
func (p Pattern) Level() int {
	var d int
	for _, v := range p {
		if v != Wildcard {
			d++
		}
	}
	return d
}

// Mask returns the bitmask of deterministic slots.
func (p Pattern) Mask() uint32 {
	var m uint32
	for i, v := range p {
		if v != Wildcard {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Equal reports slot-wise equality.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dominates reports whether general dominates specific (Def. 2):
// general is obtained from specific by replacing deterministic elements
// with wildcards while keeping the rest unchanged. Every pattern
// dominates itself.
func Dominates(general, specific Pattern) bool {
	if len(general) != len(specific) {
		return false
	}
	for i := range general {
		if general[i] != Wildcard && general[i] != specific[i] {
			return false
		}
	}
	return true
}

// MatchRow reports whether a dataset row falls in the region described
// by p.
func (sp *Space) MatchRow(p Pattern, row []int32) bool {
	for i, v := range p {
		if v != Wildcard && row[sp.AttrIdx[i]] != int32(v) {
			return false
		}
	}
	return true
}

// Key packs p into a uint64: 5 bits per slot, wildcard = 0, value v
// stored as v+1.
func (sp *Space) Key(p Pattern) uint64 {
	var k uint64
	for i, v := range p {
		k |= uint64(v+1) << uint(5*i)
	}
	return k
}

// DecodeKey inverts Key.
func (sp *Space) DecodeKey(k uint64) Pattern {
	p := make(Pattern, sp.Dim())
	for i := range p {
		p[i] = int16((k>>uint(5*i))&31) - 1
	}
	return p
}

// String renders the pattern with attribute names, omitting wildcard
// slots as the paper does ("(age=25-45, priors=>3)"). The all-wildcard
// pattern renders as "(*)".
func (sp *Space) String(p Pattern) string {
	var parts []string
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", sp.Names[i],
			sp.Schema.Attrs[sp.AttrIdx[i]].Values[v]))
	}
	if len(parts) == 0 {
		return "(*)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Parse builds a pattern from name=value pairs, e.g.
// Parse("age", "25-45", "priors", ">3"). Unknown names or values return
// an error.
func (sp *Space) Parse(pairs ...string) (Pattern, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("pattern: Parse needs name/value pairs")
	}
	p := NewPattern(sp.Dim())
	for i := 0; i < len(pairs); i += 2 {
		slot := -1
		for j, n := range sp.Names {
			if n == pairs[i] {
				slot = j
			}
		}
		if slot < 0 {
			return nil, fmt.Errorf("pattern: %q is not a protected attribute", pairs[i])
		}
		v := sp.Schema.Attrs[sp.AttrIdx[slot]].ValueIndex(pairs[i+1])
		if v < 0 {
			return nil, fmt.Errorf("pattern: %q is not a value of %s", pairs[i+1], pairs[i])
		}
		p[slot] = int16(v)
	}
	return p, nil
}

// Masks returns all 2^dim deterministic-slot masks, i.e. one per node
// in the hierarchy of Fig. 1 (mask 0 is the level-0 whole-dataset node).
// Masks are ordered by level, then numerically, matching a level-wise
// traversal.
func (sp *Space) Masks() []uint32 {
	n := 1 << uint(sp.Dim())
	masks := make([]uint32, 0, n)
	for m := 0; m < n; m++ {
		masks = append(masks, uint32(m))
	}
	// Stable level-wise order: sort by popcount, ties by value.
	byLevel := make([][]uint32, sp.Dim()+1)
	for _, m := range masks {
		l := bits.OnesCount32(m)
		byLevel[l] = append(byLevel[l], m)
	}
	out := masks[:0]
	for _, ms := range byLevel {
		out = append(out, ms...)
	}
	return out
}

// EnumerateNode calls f for every fully assigned pattern in the node
// identified by mask (all value combinations over the mask's slots).
func (sp *Space) EnumerateNode(mask uint32, f func(Pattern)) {
	sp.EnumerateNodeUntil(mask, func(p Pattern) bool {
		f(p)
		return true
	})
}

// EnumerateNodeUntil is EnumerateNode with early termination: it stops
// the enumeration as soon as f returns false and reports whether the
// node was enumerated to completion. Cancellable traversals use it to
// abandon a node mid-scan.
func (sp *Space) EnumerateNodeUntil(mask uint32, f func(Pattern) bool) bool {
	slots := make([]int, 0, sp.Dim())
	for i := 0; i < sp.Dim(); i++ {
		if mask&(1<<uint(i)) != 0 {
			slots = append(slots, i)
		}
	}
	p := NewPattern(sp.Dim())
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(slots) {
			return f(p)
		}
		s := slots[k]
		for v := 0; v < sp.Cards[s]; v++ {
			p[s] = int16(v)
			if !rec(k + 1) {
				return false
			}
		}
		p[s] = Wildcard
		return true
	}
	return rec(0)
}

// Parents calls f for each pattern obtained by removing one
// deterministic element of p — the set R_d of dominating regions one
// level up used by the optimized algorithm. f receives a reused buffer;
// it must Clone if it retains the pattern.
func (sp *Space) Parents(p Pattern, f func(Pattern)) {
	q := p.Clone()
	for i, v := range p {
		if v == Wildcard {
			continue
		}
		q[i] = Wildcard
		f(q)
		q[i] = v
	}
}

// Neighbors calls f for every region in the neighboring region of p
// (Def. 4) in the basic unit-distance setting: regions with the same
// deterministic slots whose values differ from p in at least 1 and at
// most T slots. f receives a reused buffer.
func (sp *Space) Neighbors(p Pattern, T int, f func(Pattern)) {
	slots := make([]int, 0, sp.Dim())
	for i, v := range p {
		if v != Wildcard {
			slots = append(slots, i)
		}
	}
	if T > len(slots) {
		T = len(slots)
	}
	q := p.Clone()
	// Choose 1..T slots to change in increasing slot order, each taking
	// a value different from p's, so every neighbor is emitted exactly
	// once.
	var walk func(start, remaining int, changed bool)
	walk = func(start, remaining int, changed bool) {
		if changed {
			f(q)
		}
		if remaining == 0 {
			return
		}
		for k := start; k < len(slots); k++ {
			s := slots[k]
			orig := q[s]
			for v := 0; v < sp.Cards[s]; v++ {
				if int16(v) == p[s] {
					continue
				}
				q[s] = int16(v)
				walk(k+1, remaining-1, true)
			}
			q[s] = orig
		}
	}
	walk(0, T, false)
}
