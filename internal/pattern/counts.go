package pattern

import (
	"math/bits"
	"slices"

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

// Lattice holds k class counts for every region of the hierarchy, as
// counted by CountAll. Slot s's counts sit at counts[s*k : s*k+k].
//
// The dense layout is a Cube: a slot is a cube cell. The sparse layout
// keeps only non-empty regions, a slot per entry of keys. It counts the
// leaf node from the rows, one slot per distinct tuple, and derives
// every other node the first time it is read, by the cube's roll-up:
// from a derived node with one more attribute, else from the leaf. A
// read of few nodes derives only those; a Walk derives them all, at a
// cost proportional to the non-empty regions.
type Lattice struct {
	sp     *Space
	k      int
	counts []int32
	cube   *Cube // dense layout
	// The sparse layout: zero holds the counts of every empty region,
	// slots maps the key of every region of a derived node to its
	// slot, keys inverts it, and nodes[mask] lists the slots of node
	// mask, nil until the node is derived.
	zero  []int32
	slots map[uint64]int32
	keys  []uint64
	nodes [][]int32
}

// CountAll counts every region of the whole hierarchy by class, where
// row r belongs to class classes[r] in [0, k): the support counting of
// frequent-pattern mining that Theorem 1 reduces region counting to.
// It takes the dense layout when Space.CubeFits the rows, else the
// sparse one.
func (sp *Space) CountAll(d *dataset.Dataset, classes []int8, k int) *Lattice {
	if sp.CubeFits(d.Len(), k) {
		return sp.CountDense(d, classes, k)
	}
	return sp.CountSparse(d, classes, k)
}

// CountDense is CountAll in the dense layout: one Cube over the whole
// lattice. It allocates Space.NumRegions()·k counts, which is why
// CountAll takes it only when the cube fits.
func (sp *Space) CountDense(d *dataset.Dataset, classes []int8, k int) *Lattice {
	c := sp.countCube(d, classes, k)
	return &Lattice{sp: sp, k: k, counts: c.cells, cube: c}
}

// CountSparse is CountAll in the sparse layout: it counts the leaf
// node and leaves the others to be derived on first read.
func (sp *Space) CountSparse(d *dataset.Dataset, classes []int8, k int) *Lattice {
	full := 1<<uint(sp.Dim()) - 1
	l := &Lattice{sp: sp, k: k, zero: make([]int32, k),
		slots: make(map[uint64]int32), nodes: make([][]int32, full+1)}
	leaf := []int32{}
	for r, row := range d.Rows {
		key := sp.rowKey(row)
		s, ok := l.slots[key]
		if !ok {
			s = l.newSlot(key)
			leaf = append(leaf, s)
		}
		l.counts[int(s)*k+int(classes[r])]++
	}
	l.nodes[full] = leaf
	return l
}

// rowKey returns the Key of the leaf region holding row.
func (sp *Space) rowKey(row []int32) uint64 {
	var key uint64
	for s, a := range sp.AttrIdx {
		key |= uint64(row[a]+1) << uint(5*s)
	}
	return key
}

// keyMask returns the bits of a Key that hold the slots of mask.
func keyMask(mask uint32) uint64 {
	var km uint64
	for m := mask; m != 0; m &= m - 1 {
		km |= 31 << uint(5*bits.TrailingZeros32(m))
	}
	return km
}

// newSlot adds a zero-count slot for region key.
func (l *Lattice) newSlot(key uint64) int32 {
	s := int32(len(l.keys))
	l.slots[key] = s
	l.keys = append(l.keys, key)
	l.counts = append(l.counts, l.zero...)
	return s
}

// derive rolls node mask up, unless it is derived, from the derived
// node with one more attribute and the fewest regions, or from the
// leaf when there is none.
func (l *Lattice) derive(mask uint32) {
	if l.nodes[mask] != nil {
		return
	}
	leaf := uint32(len(l.nodes) - 1)
	from := leaf
	for m := leaf &^ mask; m != 0; m &= m - 1 {
		up := mask | 1<<uint(bits.TrailingZeros32(m))
		if l.nodes[up] != nil && len(l.nodes[up]) < len(l.nodes[from]) {
			from = up
		}
	}
	km, k := keyMask(mask), l.k
	node := make([]int32, 0, len(l.nodes[from]))
	for _, src := range l.nodes[from] {
		s := int(src)
		if total(l.counts[s*k:(s+1)*k]) == 0 {
			continue
		}
		dst, ok := l.slots[l.keys[s]&km]
		if !ok {
			dst = l.newSlot(l.keys[s] & km)
			node = append(node, dst)
		}
		for j := 0; j < k; j++ {
			l.counts[int(dst)*k+j] += l.counts[s*k+j]
		}
	}
	l.nodes[mask] = node
}

// Fill derives the sparse layout's nodes masks, in order, so that
// reads of them no longer write: concurrent readers may then share
// them. A node rolls up fastest from a derived node with one more
// attribute, so pass those first. The dense layout is always filled.
func (l *Lattice) Fill(masks []uint32) {
	if l.cube != nil {
		return
	}
	for _, m := range masks {
		l.derive(m)
	}
}

// Cube returns the dense layout's cube, or nil in the sparse layout.
func (l *Lattice) Cube() *Cube { return l.cube }

// Stride returns the address distance between consecutive digits of
// slot i. Region p's address is Σ (p[i]+1)·Stride(i): its cell index
// in the dense layout, its Key in the sparse one. So dropping slot i
// moves an address down by (p[i]+1)·Stride(i), and the address with
// only some slots set is the address of that ancestor.
func (l *Lattice) Stride(i int) uint64 {
	if l.cube != nil {
		return uint64(l.cube.strides[i])
	}
	return 1 << uint(5*i)
}

// Counts returns the k class counts of region p; the caller must not
// modify them. Every empty region shares one zero slice.
func (l *Lattice) Counts(p Pattern) []int32 {
	var a uint64
	for i, v := range p {
		a += uint64(v+1) * l.Stride(i)
	}
	return l.At(a, p.Mask())
}

// At returns the k class counts of the region at address a (see
// Stride) of node mask, as Counts does. A sparse read of a node that
// is not derived derives it.
func (l *Lattice) At(a uint64, mask uint32) []int32 {
	s := int(a)
	if l.cube == nil {
		i, ok := l.slots[a]
		if !ok && l.nodes[mask] == nil {
			l.derive(mask) // then the region has a slot if it is non-empty
			i, ok = l.slots[a]
		}
		if !ok {
			return l.zero[:l.k:l.k]
		}
		s = int(i)
	}
	return l.counts[s*l.k : (s+1)*l.k : (s+1)*l.k]
}

// AddRow adds delta[j] to the class-j count of every region containing
// row. In the sparse layout it updates the derived nodes, giving a
// region new to one of them a slot; nodes derived later roll up from
// the updated counts.
func (l *Lattice) AddRow(row []int32, delta []int32) {
	if l.cube != nil {
		l.cube.AddRow(row, delta)
		return
	}
	key := l.sp.rowKey(row)
	for mask, node := range l.nodes {
		if node == nil {
			continue
		}
		region := key & keyMask(uint32(mask))
		s, ok := l.slots[region]
		if !ok {
			s = l.newSlot(region)
			l.nodes[mask] = append(node, s)
		}
		for j, v := range delta {
			l.counts[int(s)*l.k+j] += v
		}
	}
}

// Size returns |p|, the region's count over all classes.
func (l *Lattice) Size(p Pattern) int { return total(l.Counts(p)) }

// Walk calls f with every non-empty region, the level-0 root included,
// and its class counts, until f returns false. f receives a reused
// pattern buffer; it must Clone the pattern to retain it. Walk fills
// the sparse layout first.
func (l *Lattice) Walk(f func(p Pattern, counts []int32) bool) {
	masks := l.sp.Masks()
	slices.Reverse(masks) // leaf level first
	l.Fill(masks)
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
