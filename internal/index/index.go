package index

import (
	"repro/internal/dataset"
	"repro/internal/pattern"
)

// Index is a bitmap index over one dataset snapshot. It is immutable;
// rebuild after the dataset changes (construction is a single O(rows ×
// attrs) pass, far cheaper than the selections it accelerates).
type Index struct {
	rows int
	// perValue[a][v] marks the rows where attribute a takes value v.
	perValue [][]*Bitmap
}

// Build indexes the dataset.
func Build(d *dataset.Dataset) *Index {
	ix := &Index{
		rows:     d.Len(),
		perValue: make([][]*Bitmap, len(d.Schema.Attrs)),
	}
	for a := range d.Schema.Attrs {
		ix.perValue[a] = make([]*Bitmap, d.Schema.Attrs[a].Cardinality())
		for v := range ix.perValue[a] {
			ix.perValue[a][v] = NewBitmap(d.Len())
		}
	}
	for i, row := range d.Rows {
		for a, v := range row {
			ix.perValue[a][v].Set(i)
		}
	}
	return ix
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.rows }

// Select returns the bitmap of rows matching pattern p over the given
// space (a fresh bitmap; the caller may mutate it).
func (ix *Index) Select(sp *pattern.Space, p pattern.Pattern) *Bitmap {
	out := NewBitmap(ix.rows)
	first := true
	for slot, v := range p {
		if v == pattern.Wildcard {
			continue
		}
		bm := ix.perValue[sp.AttrIdx[slot]][v]
		if first {
			out.CopyFrom(bm)
			first = false
		} else {
			out.And(bm)
		}
	}
	if first {
		// All-wildcard pattern: every row matches.
		for i := 0; i < ix.rows; i++ {
			out.Set(i)
		}
	}
	return out
}

// RowsIn returns the indices of rows matching p, ascending — the
// bitmap equivalent of pattern.Space.RowsIn.
func (ix *Index) RowsIn(sp *pattern.Space, p pattern.Pattern) []int {
	return ix.Select(sp, p).Indices()
}
