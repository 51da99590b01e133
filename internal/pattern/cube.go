package pattern

import (
	"math/bits"

	"repro/internal/dataset"
)

// maxCubeCells caps a dense cube at 2^26 cells (512 MiB of counts), so
// a large dataset over a wide space cannot pass CubeFits and then
// exhaust memory; such spaces keep the sparse per-node tables.
const maxCubeCells = 1 << 26

// cell is one region's counts in a Cube.
type cell struct {
	N   int32 // |r|
	Pos int32 // |r+|
}

// Cube is a dense count table over the whole region lattice. Slot i
// contributes one mixed-radix digit with Cards[i]+1 values: digit 0 is
// the wildcard and digit v+1 is value v, the compact form of Key. Every
// cell holds its region's counts at every level, so a dominating
// region is an array read: dropping slot i of p moves the index by
// -(p[i]+1)·Stride(i).
type Cube struct {
	sp      *Space
	strides []int
	cells   []cell
}

// CubeFits reports whether the lattice of a dataset with rows rows is
// kept as a dense Cube: the cube may have no more cells than the
// rows·2^dim entries the sparse per-node tables could ever hold, and
// no more than maxCubeCells.
func (sp *Space) CubeFits(rows int) bool {
	n := sp.NumRegions()
	return n <= rows<<uint(sp.Dim()) && n <= maxCubeCells
}

// CountCube counts every region of the lattice in one pass over the
// rows and one roll-up per attribute: each row increments its leaf
// cell, then for each slot in turn the digits 1..c are summed into the
// wildcard digit 0.
func (sp *Space) CountCube(d *dataset.Dataset) *Cube {
	c := &Cube{sp: sp, strides: make([]int, sp.Dim())}
	n := 1
	for i, card := range sp.Cards {
		c.strides[i] = n
		n *= card + 1
	}
	c.cells = make([]cell, n)
	for r, row := range d.Rows {
		idx := 0
		for s, a := range sp.AttrIdx {
			idx += int(row[a]+1) * c.strides[s]
		}
		c.cells[idx].N++
		if d.Labels[r] == 1 {
			c.cells[idx].Pos++
		}
	}
	for s, card := range sp.Cards {
		stride := c.strides[s]
		block := stride * (card + 1)
		for base := 0; base < n; base += block {
			dst := c.cells[base : base+stride]
			for v := 1; v <= card; v++ {
				src := c.cells[base+v*stride : base+(v+1)*stride]
				for j := range dst {
					dst[j].N += src[j].N
					dst[j].Pos += src[j].Pos
				}
			}
		}
	}
	return c
}

// Index returns the cell index of region p.
func (c *Cube) Index(p Pattern) int {
	idx := 0
	for i, v := range p {
		idx += int(v+1) * c.strides[i]
	}
	return idx
}

// Stride returns the index distance between consecutive digits of slot i.
func (c *Cube) Stride(i int) int { return c.strides[i] }

// At returns the counts of the region at cell index i.
func (c *Cube) At(i int) Counts {
	return Counts{N: int(c.cells[i].N), Pos: int(c.cells[i].Pos)}
}

// AddRow adds dn to |r| and dp to |r+| of every region containing row:
// the 2^dim projections of the row, visited in Gray-code order so each
// step moves one slot between its value and the wildcard.
func (c *Cube) AddRow(row []int32, dn, dp int) {
	idx := 0
	for i := 0; i < 1<<uint(len(c.strides)); i++ {
		if i > 0 {
			s := bits.TrailingZeros(uint(i))
			step := int(row[c.sp.AttrIdx[s]]+1) * c.strides[s]
			if gray := i ^ (i >> 1); gray&(1<<uint(s)) != 0 {
				idx += step
			} else {
				idx -= step
			}
		}
		c.cells[idx].N += int32(dn)
		c.cells[idx].Pos += int32(dp)
	}
}

// Node returns the non-empty regions of the node identified by mask as
// a Table: a copy for callers that want the per-node view.
func (c *Cube) Node(mask uint32) Table {
	t := make(Table)
	c.sp.EnumerateNode(mask, func(p Pattern) {
		if cnt := c.At(c.Index(p)); cnt.N != 0 {
			t[c.sp.Key(p)] = cnt
		}
	})
	return t
}
