package pattern

import (
	"slices"

	"repro/internal/dataset"
)

// Groups holds a dataset's row indices bucketed by their region in one
// hierarchy node. The zero value holds no rows; Regroup fills it.
type Groups struct {
	sp     *Space
	order  []int32  // row indices by region, ascending within a region
	keys   []uint64 // the non-empty regions' keys, ascending
	starts []int32  // region i's rows are order[starts[i]:starts[i+1]]
	rowKey []uint64 // scratch: each row's key
	tmp    []int32  // scratch: the radix sort's second buffer
}

// GroupRows returns the rows of d grouped by their region in node
// mask; see Regroup.
func (sp *Space) GroupRows(d *dataset.Dataset, mask uint32) *Groups {
	g := new(Groups)
	g.Regroup(sp, d, mask)
	g.rowKey, g.tmp = nil, nil // a one-off grouping keeps only its result
	return g
}

// Regroup groups the rows of d by their region in node mask of sp,
// reusing g's buffers; rows returned by g before are invalid after.
// It is a stable LSD radix sort on the rows' keys: one counting-sort
// pass per slot of the mask, slot 0 first, so regions come out in Key
// order (slot 0 is the least significant digit, as in the cube) and
// rows ascend within a region. It costs O(|mask|·rows) and never
// allocates a cell per region of the node, so the widest space needs
// no size cap.
func (g *Groups) Regroup(sp *Space, d *dataset.Dataset, mask uint32) {
	g.sp = sp
	n := d.Len()
	slots := sp.maskSlots(mask)
	g.rowKey = resize(g.rowKey, n)
	g.order, g.tmp = resize(g.order, n), resize(g.tmp, n)
	// next[i][v] counts the rows whose digit for the mask's i-th slot
	// is v; the counts do not depend on row order, so one pass takes
	// them for every slot.
	var next [MaxDim][32]int32
	for r, row := range d.Rows {
		var k uint64
		for i, s := range slots {
			v := row[sp.AttrIdx[s]] + 1
			next[i][v]++
			k |= uint64(v) << uint(5*s)
		}
		g.rowKey[r] = k
		g.order[r] = int32(r)
	}
	for i, s := range slots {
		// The exclusive prefix sum turns each count into its digit's
		// next output position.
		pos := int32(0)
		for v, c := range next[i] {
			next[i][v] = pos
			pos += c
		}
		shift := uint(5 * s)
		for _, r := range g.order {
			v := g.rowKey[r] >> shift & 31
			g.tmp[next[i][v]] = r
			next[i][v]++
		}
		g.order, g.tmp = g.tmp, g.order
	}
	g.keys, g.starts = g.keys[:0], g.starts[:0]
	for i, r := range g.order {
		if k := g.rowKey[r]; i == 0 || k != g.keys[len(g.keys)-1] {
			g.keys = append(g.keys, k)
			g.starts = append(g.starts, int32(i))
		}
	}
	g.starts = append(g.starts, int32(n))
}

func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Len returns the number of non-empty regions.
func (g *Groups) Len() int { return len(g.keys) }

// Region returns the key and rows of the i-th non-empty region in Key
// order; the caller must not modify the rows.
func (g *Groups) Region(i int) (uint64, []int32) {
	return g.keys[i], g.order[g.starts[i]:g.starts[i+1]:g.starts[i+1]]
}

// Rows returns the rows of region p, which must be a region of the
// grouped node, ascending; nil when the region is empty. The caller
// must not modify them.
func (g *Groups) Rows(p Pattern) []int32 {
	i, ok := slices.BinarySearch(g.keys, g.sp.Key(p))
	if !ok {
		return nil
	}
	_, rows := g.Region(i)
	return rows
}
