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

// CountAll computes the counts of every non-empty region in the whole
// hierarchy in one pass: for each row, all 2^dim masked projections are
// incremented. Regions with zero instances are simply absent.
func (sp *Space) CountAll(d *dataset.Dataset) Table {
	dim := sp.Dim()
	t := make(Table, sp.NumRegions()/2)
	contrib := make([]uint64, dim)
	for i, row := range d.Rows {
		for s := 0; s < dim; s++ {
			contrib[s] = uint64(row[sp.AttrIdx[s]]+1) << uint(5*s)
		}
		pos := d.Labels[i] == 1
		for m := 0; m < 1<<uint(dim); m++ {
			var k uint64
			for mm := m; mm != 0; mm &= mm - 1 {
				k |= contrib[bits.TrailingZeros(uint(mm))]
			}
			c := t[k]
			c.Add(pos)
			t[k] = c
		}
	}
	return t
}

// Totals returns the level-0 counts (the entire dataset).
func Totals(d *dataset.Dataset) Counts {
	return Counts{N: d.Len(), Pos: d.PositiveCount()}
}

// RowsIn returns the indices of the dataset rows matched by p.
func (sp *Space) RowsIn(d *dataset.Dataset, p Pattern) []int {
	var idx []int
	for i, row := range d.Rows {
		if sp.MatchRow(p, row) {
			idx = append(idx, i)
		}
	}
	return idx
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
