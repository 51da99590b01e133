package pattern

import (
	"math/bits"

	"repro/internal/dataset"
)

// maxCubeCounts caps a dense cube at 2^27 counts (512 MiB), so a large
// dataset over a wide space cannot pass CubeFits and then exhaust
// memory; such spaces keep sparse tables.
const maxCubeCounts = 1 << 27

// Cube is a dense count table over the whole region lattice: k class
// counts per region. Slot i contributes one mixed-radix digit with
// Cards[i]+1 values: digit 0 is the wildcard and digit v+1 is value v,
// the compact form of Key. Every cell holds its region's counts at
// every level, so a dominating region is an array read: dropping slot
// i of p moves the index by -(p[i]+1)·Stride(i).
type Cube struct {
	sp      *Space
	k       int
	strides []int
	cells   []int32 // region i's class counts at [i*k, i*k+k)
}

// CubeFits reports whether the lattice of a dataset with rows rows is
// kept as a dense Cube of k classes: the cube may have no more cells
// than the rows·2^dim entries a sparse table could ever hold, and no
// more than maxCubeCounts counts.
func (sp *Space) CubeFits(rows, k int) bool {
	n := sp.NumRegions()
	return n <= rows<<uint(sp.Dim()) && n*k <= maxCubeCounts
}

// CountCube counts every region of the lattice by class, where row r
// belongs to class classes[r] in [0, k), in one pass over the rows and
// one roll-up per attribute: each row increments its leaf cell, then
// for each slot in turn the digits 1..c are summed into the wildcard
// digit 0.
func (sp *Space) CountCube(d *dataset.Dataset, classes []int8, k int) *Cube {
	c := &Cube{sp: sp, k: k, strides: make([]int, sp.Dim())}
	n := 1
	for i, card := range sp.Cards {
		c.strides[i] = n
		n *= card + 1
	}
	c.cells = make([]int32, n*k)
	for r, row := range d.Rows {
		idx := 0
		for s, a := range sp.AttrIdx {
			idx += int(row[a]+1) * c.strides[s]
		}
		c.cells[idx*k+int(classes[r])]++
	}
	for s, card := range sp.Cards {
		stride := c.strides[s] * k
		block := stride * (card + 1)
		for base := 0; base < len(c.cells); base += block {
			dst := c.cells[base : base+stride]
			for v := 1; v <= card; v++ {
				src := c.cells[base+v*stride : base+(v+1)*stride][:len(dst)]
				j := 0
				// Two counts a step halves the loop overhead of the
				// roll-up, most of CountCube's time.
				for ; j+1 < len(dst); j += 2 {
					dst[j] += src[j]
					dst[j+1] += src[j+1]
				}
				if j < len(dst) {
					dst[j] += src[j]
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

// LabelCounts returns the Counts of the region at cell index i of a
// cube counted with the labels as classes (k = 2: negative, positive).
func (c *Cube) LabelCounts(i int) Counts {
	neg, pos := c.cells[2*i], c.cells[2*i+1]
	return Counts{N: int(neg + pos), Pos: int(pos)}
}

// AddRow adds delta[j] to the class-j count of every region containing
// row: the 2^dim projections of the row, visited in Gray-code order so
// each step moves one slot between its value and the wildcard.
func (c *Cube) AddRow(row []int32, delta []int32) {
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
		cell := c.cells[idx*c.k : (idx+1)*c.k]
		for j, v := range delta {
			cell[j] += v
		}
	}
}
