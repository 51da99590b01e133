// Package index provides a bitmap index over a categorical dataset:
// one bitset per (attribute, value) pair plus a label bitset. Region
// selections — the row sets and class counts of arbitrary conjunctive
// patterns — reduce to word-wise ANDs and popcounts, replacing the
// per-row scans that dominate the remedy loop on wide datasets. This is
// the classic database substrate for the paper's workload: the
// hierarchy traversal issues thousands of conjunctive count queries
// against a read-mostly table.
package index

import "math/bits"

// Bitmap is a fixed-length bitset.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an empty bitset of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitset's capacity in bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CopyFrom overwrites b with src (capacities must match).
func (b *Bitmap) CopyFrom(src *Bitmap) {
	copy(b.words, src.words)
}

// And intersects b with other in place.
func (b *Bitmap) And(other *Bitmap) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Iterate calls f with each set bit index in ascending order.
func (b *Bitmap) Iterate(f func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Indices returns the set bit positions.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	b.Iterate(func(i int) { out = append(out, i) })
	return out
}
