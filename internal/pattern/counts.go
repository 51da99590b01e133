package pattern

import (
	"math/bits"

	"repro/internal/dataset"
)

// Counts holds the per-region statistics of Def. 3: the region size and
// the number of positive instances.
type Counts struct {
	N   int // |r|
	Pos int // |r+|
}

// Neg returns |r-|.
func (c Counts) Neg() int { return c.N - c.Pos }

// Ratio returns the imbalance score ratio_r = |r+|/|r-| (Def. 3), with
// the paper's sentinel -1 when |r-| = 0.
func (c Counts) Ratio() float64 {
	if c.Neg() == 0 {
		return -1
	}
	return float64(c.Pos) / float64(c.Neg())
}

// Add accumulates one instance.
func (c *Counts) Add(positive bool) {
	c.N++
	if positive {
		c.Pos++
	}
}

// Table maps region keys (Space.Key) to their counts.
type Table map[uint64]Counts

// CountNode computes the counts of every non-empty region in one
// hierarchy node: the group-by of the dataset on the attributes of
// mask. This is the "compute and store the counts of regions" step of
// Algorithm 1 (lines 5-6).
func (sp *Space) CountNode(d *dataset.Dataset, mask uint32) Table {
	t := make(Table)
	slots := sp.maskSlots(mask)
	for i, row := range d.Rows {
		var k uint64
		for _, s := range slots {
			k |= uint64(row[sp.AttrIdx[s]]+1) << uint(5*s)
		}
		c := t[k]
		c.Add(d.Labels[i] == 1)
		t[k] = c
	}
	return t
}

// Lattice holds k class counts for every region of the hierarchy, as
// counted by CountAll: a dense Cube, or a table of the non-empty
// regions when the cube does not fit. Slot s's counts sit at
// counts[s*k : s*k+k]; a slot is a cube cell, or an entry of keys.
type Lattice struct {
	sp     *Space
	k      int
	counts []int32
	cube   *Cube          // dense backend
	slots  map[uint64]int // sparse backend: region key -> slot
	keys   []uint64       // sparse backend: slot -> region key
}

// CountAll counts every region of the whole hierarchy by class, where
// row r belongs to class classes[r] in [0, k): the support counting of
// frequent-pattern mining that Theorem 1 reduces region counting to.
// The lattice is a dense Cube when Space.CubeFits the rows; otherwise
// each row increments all 2^dim masked projections in a hash table, so
// only non-empty regions are stored.
func (sp *Space) CountAll(d *dataset.Dataset, classes []int8, k int) *Lattice {
	if sp.CubeFits(d.Len(), k) {
		c := sp.CountCube(d, classes, k)
		return &Lattice{sp: sp, k: k, counts: c.cells, cube: c}
	}
	return sp.countSparse(d, classes, k)
}

// countSparse is CountAll's hash-table backend.
func (sp *Space) countSparse(d *dataset.Dataset, classes []int8, k int) *Lattice {
	dim := sp.Dim()
	l := &Lattice{sp: sp, k: k, slots: make(map[uint64]int)}
	contrib := make([]uint64, dim)
	for i, row := range d.Rows {
		for s := 0; s < dim; s++ {
			contrib[s] = uint64(row[sp.AttrIdx[s]]+1) << uint(5*s)
		}
		for m := 0; m < 1<<uint(dim); m++ {
			var key uint64
			for mm := m; mm != 0; mm &= mm - 1 {
				key |= contrib[bits.TrailingZeros(uint(mm))]
			}
			s, ok := l.slots[key]
			if !ok {
				s = len(l.keys)
				l.slots[key] = s
				l.keys = append(l.keys, key)
				l.counts = append(l.counts, make([]int32, k)...)
			}
			l.counts[s*k+int(classes[i])]++
		}
	}
	return l
}

// Counts returns the k class counts of region p; the caller must not
// modify them.
func (l *Lattice) Counts(p Pattern) []int32 {
	s, ok := 0, true
	if l.cube != nil {
		s = l.cube.Index(p)
	} else if s, ok = l.slots[l.sp.Key(p)]; !ok {
		return make([]int32, l.k)
	}
	return l.counts[s*l.k : (s+1)*l.k : (s+1)*l.k]
}

// Size returns |p|, the region's count over all classes.
func (l *Lattice) Size(p Pattern) int { return total(l.Counts(p)) }

// Walk calls f with every non-empty region, the level-0 root included,
// and its class counts, until f returns false. f receives a reused
// pattern buffer; it must Clone the pattern to retain it.
func (l *Lattice) Walk(f func(p Pattern, counts []int32) bool) {
	p := make(Pattern, l.sp.Dim())
	for s := 0; s*l.k < len(l.counts); s++ {
		c := l.counts[s*l.k : (s+1)*l.k : (s+1)*l.k]
		if total(c) == 0 {
			continue
		}
		for i := range p { // slot i's digit: 0 is the wildcard, v+1 value v
			if l.cube != nil {
				p[i] = int16(s/l.cube.strides[i]%(l.sp.Cards[i]+1)) - 1
			} else {
				p[i] = int16(l.keys[s]>>uint(5*i)&31) - 1
			}
		}
		if !f(p, c) {
			return
		}
	}
}

func total(c []int32) int {
	n := 0
	for _, v := range c {
		n += int(v)
	}
	return n
}

// Totals returns the level-0 counts (the entire dataset).
func Totals(d *dataset.Dataset) Counts {
	return Counts{N: d.Len(), Pos: d.PositiveCount()}
}

// CountPattern counts one region by scanning the dataset; used by tests
// as the brute-force oracle and by callers needing a single region.
func (sp *Space) CountPattern(d *dataset.Dataset, p Pattern) Counts {
	var c Counts
	for i, row := range d.Rows {
		if sp.MatchRow(p, row) {
			c.Add(d.Labels[i] == 1)
		}
	}
	return c
}

func (sp *Space) maskSlots(mask uint32) []int {
	slots := make([]int, 0, sp.Dim())
	for i := 0; i < sp.Dim(); i++ {
		if mask&(1<<uint(i)) != 0 {
			slots = append(slots, i)
		}
	}
	return slots
}
