// Package core implements the paper's primary contribution: the
// Implicit Biased Set (IBS). It defines the imbalance score of a region
// (Def. 3), the neighboring region under a distance threshold T
// (Def. 4), the IBS membership test (Def. 5), and Algorithm 1 — the
// bottom-up traversal of the region hierarchy that identifies every
// biased region — in both the naïve form (§III-A) and the optimized
// form (§III-B) that derives neighborhood counts from dominating
// regions with an over-counting correction.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/pattern"
)

// Scope selects which hierarchy levels the identification (and remedy)
// traverses, matching the paper's Lattice / Leaf / Top comparison
// (§V-B2).
type Scope int

const (
	// Lattice traverses every node from the leaf level up to level 1 —
	// the paper's full method.
	Lattice Scope = iota
	// Leaf considers only the leaf level (fully deterministic
	// patterns — the finest intersections).
	Leaf
	// Top considers only level 1 (one protected attribute at a time —
	// classic single-attribute group fairness).
	Top
)

func (s Scope) String() string {
	switch s {
	case Lattice:
		return "Lattice"
	case Leaf:
		return "Leaf"
	case Top:
		return "Top"
	}
	return fmt.Sprintf("Scope(%d)", int(s))
}

// ParseScope resolves a scope from its name in any letter case, the
// inverse of String.
func ParseScope(s string) (Scope, error) {
	for _, sc := range []Scope{Lattice, Leaf, Top} {
		if strings.EqualFold(s, sc.String()) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scope %q (lattice, leaf, top)", s)
}

// Config carries the IBS identification parameters.
type Config struct {
	// TauC is the imbalance threshold τ_c of Def. 5.
	TauC float64
	// T is the distance threshold of the neighboring region (Def. 4)
	// in the paper's basic unit-distance setting, the only metric
	// implemented: a neighbor differs from the region in at least 1
	// and at most T deterministic coordinates, whatever the values'
	// order. T is clamped per-region to the region's level d. Both
	// traversals accept every T >= 1 and agree at every T.
	T int
	// MinSize is the significance threshold k: regions with |r| <= k
	// are skipped (Problem 1). Zero means the paper's default of 30.
	MinSize int
	// Scope restricts the traversal; the zero value is Lattice.
	Scope Scope
	// Workers, when above 1, scans each level of the optimized
	// traversal on up to that many goroutines. The Result and the
	// OnLevel snapshots are identical at every count.
	Workers int
	// OnLevel, when set, is called after each hierarchy level of the
	// optimized traversal completes, with a snapshot of that level's
	// regions and work counters — the checkpoint hook long-running
	// identifications persist through so a crash resumes from the last
	// completed level. A non-nil error aborts the traversal and is
	// returned with the partial Result. It is called at the level
	// barrier, after the level's workers are joined, at every Workers
	// count; a level cut short by an error or cancellation is not
	// checkpointed. Never marshaled (func); resumable state lives in
	// the snapshots it is handed.
	OnLevel func(ctx context.Context, snap LevelSnapshot) error `json:"-"`
	// Resume seeds the traversal with previously checkpointed levels:
	// their regions and counters are folded into the Result and their
	// masks are skipped, so an interrupted identification re-run with
	// the same Config and data produces a Result identical to an
	// uninterrupted run, at any Workers count. Snapshots for levels
	// outside the Scope are ignored. Duplicate levels keep the last
	// snapshot (recovery journals are last-wins).
	Resume []LevelSnapshot `json:"-"`
}

// LevelSnapshot is one completed hierarchy level of an optimized
// identification: the checkpoint unit. Regions holds the IBS members
// found at that level; the counters are that level's deltas, so
// summing snapshots of all levels reproduces the full Result's
// counters.
type LevelSnapshot struct {
	Level       int      `json:"level"`
	Regions     []Region `json:"regions,omitempty"`
	Explored    int      `json:"explored"`
	NeighborOps int      `json:"neighbor_ops"`
	Pruned      int      `json:"pruned"`
}

// add appends o's regions to s and adds its work counters.
func (s *LevelSnapshot) add(o LevelSnapshot) {
	s.Regions = append(s.Regions, o.Regions...)
	s.Explored += o.Explored
	s.NeighborOps += o.NeighborOps
	s.Pruned += o.Pruned
}

// DefaultMinSize is the paper's rule-of-thumb region size threshold k.
const DefaultMinSize = 30

func (c Config) minSize() int {
	if c.MinSize <= 0 {
		return DefaultMinSize
	}
	return c.MinSize
}

// Validate checks the identification parameters: τ_c must be
// non-negative, T at least 1, and every Resume snapshot name a level
// of at least 1. Every identification entry point and the remedy call
// it before any work.
func (c Config) Validate() error {
	if c.TauC < 0 {
		return fmt.Errorf("core: negative imbalance threshold %v", c.TauC)
	}
	if c.T < 1 {
		return fmt.Errorf("core: distance threshold T must be >= 1, got %d", c.T)
	}
	for _, snap := range c.Resume {
		if snap.Level < 1 {
			return fmt.Errorf("core: resume snapshot for invalid level %d", snap.Level)
		}
	}
	return nil
}

// resumeByLevel indexes the Resume snapshots by level, last-wins.
func (c Config) resumeByLevel() map[int]LevelSnapshot {
	if len(c.Resume) == 0 {
		return nil
	}
	m := make(map[int]LevelSnapshot, len(c.Resume))
	for _, snap := range c.Resume {
		m[snap.Level] = snap
	}
	return m
}

// Region is one member of the IBS: a biased region together with the
// evidence for its membership.
type Region struct {
	Pattern pattern.Pattern
	// Counts are |r|, |r+| (and |r-| via Neg).
	Counts pattern.Counts
	// Ratio is ratio_r, the region's imbalance score.
	Ratio float64
	// NeighborCounts aggregates the neighboring region r_n.
	NeighborCounts pattern.Counts
	// NeighborRatio is ratio_rn.
	NeighborRatio float64
}

// Gap returns |ratio_r - ratio_rn|, the quantity compared against τ_c.
func (r Region) Gap() float64 { return math.Abs(r.Ratio - r.NeighborRatio) }

// Result is the Implicit Biased Set I with its identification context.
type Result struct {
	Space   *pattern.Space
	Config  Config
	Regions []Region
	// Explored is the number of candidate regions examined (size > k),
	// and NeighborOps the number of neighbor/dominating-region count
	// aggregations performed — the cost the optimized algorithm reduces.
	Explored    int
	NeighborOps int
	// Pruned counts the regions skipped by the significance filter
	// (|r| <= k) — the traversal work the size threshold saves.
	Pruned int
}

// Contains reports whether the exact pattern p is in the IBS.
func (res *Result) Contains(p pattern.Pattern) bool {
	k := res.Space.Key(p)
	for i := range res.Regions {
		if res.Space.Key(res.Regions[i].Pattern) == k {
			return true
		}
	}
	return false
}

// Region returns the IBS entry for the exact pattern p, if present.
func (res *Result) Region(p pattern.Pattern) (Region, bool) {
	k := res.Space.Key(p)
	for i := range res.Regions {
		if res.Space.Key(res.Regions[i].Pattern) == k {
			return res.Regions[i], true
		}
	}
	return Region{}, false
}

// DominatesSignificant reports whether subgroup pattern g strictly
// dominates at least one IBS region (the blue marking of Fig. 3).
func (res *Result) DominatesSignificant(g pattern.Pattern) bool {
	for i := range res.Regions {
		r := res.Regions[i].Pattern
		if !g.Equal(r) && pattern.Dominates(g, r) {
			return true
		}
	}
	return false
}

// Hierarchy is the traversal structure of Fig. 1: the space of regions
// grouped into nodes by deterministic-attribute mask, with memoized
// counts so that dominating-region counts are computed once and shared
// across all regions of a node (§III-B).
//
// The counts live in one pattern.Lattice, counted by Space.CountAll on
// the first read from the data then present: a dense cube when it
// fits, else the sparse layout, which derives each node on its first
// read.
type Hierarchy struct {
	Space  *pattern.Space
	Data   *dataset.Dataset
	lat    *pattern.Lattice // nil until the first count read
	totals pattern.Counts
	// countAll counts the lattice: (*pattern.Space).CountAll, which
	// tests swap for CountDense or CountSparse to pin a layout.
	countAll func(*pattern.Space, *dataset.Dataset, []int8, int) *pattern.Lattice
}

// NewHierarchy constructs the hierarchy over the protected attributes
// of d's schema.
func NewHierarchy(d *dataset.Dataset) (*Hierarchy, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Space: sp, Data: d, totals: pattern.Totals(d),
		countAll: (*pattern.Space).CountAll}, nil
}

// lattice returns the counts, counting them on the first read.
func (h *Hierarchy) lattice() *pattern.Lattice {
	if h.lat == nil {
		h.lat = h.countAll(h.Space, h.Data, h.Data.Labels, 2)
	}
	return h.lat
}

// count returns the counts of region p: the read of the naïve walk,
// and of the optimized one for the ancestors at 1 < T < level.
func (h *Hierarchy) count(p pattern.Pattern) pattern.Counts {
	c := h.lattice().Counts(p)
	return pattern.Counts{N: int(c[0] + c[1]), Pos: int(c[1])}
}

// countAt returns the counts of the region at lattice address a of
// node mask (pattern.Lattice.Stride): the optimized traversal's read,
// straight from the cube in the dense layout.
func (h *Hierarchy) countAt(a uint64, mask uint32) pattern.Counts {
	lat := h.lattice()
	if cube := lat.Cube(); cube != nil {
		return cube.LabelCounts(int(a))
	}
	c := lat.At(a, mask)
	return pattern.Counts{N: int(c[0] + c[1]), Pos: int(c[1])}
}

// PreloadCtx counts the lattice and fills every node, so that
// subsequent reads (including concurrent ones) only read. workers is
// ignored: the fill is one roll-up pass. It has fill's contract.
func (h *Hierarchy) PreloadCtx(ctx context.Context, workers int) error {
	masks := make([]uint32, 1<<uint(h.Space.Dim()))
	for i := range masks {
		masks[i] = uint32(len(masks) - 1 - i) // each node after its supersets
	}
	return h.fill(ctx, masks)
}

// fill makes the counts of the nodes masks ready for concurrent reads:
// it counts the lattice if it is missing, then derives the sparse
// layout's nodes in order (the dense cube is always filled). A
// cancelled ctx returns ctx.Err() before counting. faults.PreloadWorker
// fires first, with the union of masks. A panic is recovered into a
// *WorkerPanicError and drops the half-filled lattice: the hierarchy
// stays usable and recounts on the next read.
func (h *Hierarchy) fill(ctx context.Context, masks []uint32) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	var union uint32
	for _, m := range masks {
		union |= m
	}
	defer func() {
		if r := recover(); r != nil {
			h.lat = nil
			err = &WorkerPanicError{Mask: union, Value: r, Stack: debug.Stack()}
		}
	}()
	if faults.Active() {
		if err := faults.FireCtx(ctx, faults.PreloadWorker, union); err != nil {
			return fmt.Errorf("core: fill nodes %#x: %w", union, err)
		}
	}
	h.lattice().Fill(masks)
	return nil
}

// Node returns the counts of the non-empty regions of the node
// identified by mask, as a fresh table.
func (h *Hierarchy) Node(mask uint32) pattern.Table {
	t := make(pattern.Table)
	h.Space.EnumerateNode(mask, func(p pattern.Pattern) {
		if c := h.count(p); c.N != 0 {
			t[h.Space.Key(p)] = c
		}
	})
	return t
}

// Totals returns the level-0 counts of the dataset.
func (h *Hierarchy) Totals() pattern.Counts { return h.totals }

// SetData swaps the underlying dataset (after a remedy step) and drops
// all memoized counts; the next count read recounts the lattice.
func (h *Hierarchy) SetData(d *dataset.Dataset) {
	h.Data = d
	h.lat = nil
	h.totals = pattern.Totals(d)
}

// AddRow incrementally credits one appended instance to the counts
// and the totals, so the remedy loop can keep the hierarchy consistent
// without recounting. A lattice not yet counted is counted later from
// the already-updated dataset, which keeps the two sources consistent.
func (h *Hierarchy) AddRow(row []int32, positive bool) {
	h.adjust(row, positive, +1)
}

// RemoveRow incrementally debits one removed instance.
func (h *Hierarchy) RemoveRow(row []int32, positive bool) {
	h.adjust(row, positive, -1)
}

// FlipRow incrementally moves one instance across classes
// (nowPositive reports the label after the flip).
func (h *Hierarchy) FlipRow(row []int32, nowPositive bool) {
	delta := 1
	if !nowPositive {
		delta = -1
	}
	h.apply(row, 0, delta)
}

func (h *Hierarchy) adjust(row []int32, positive bool, delta int) {
	pos := 0
	if positive {
		pos = delta
	}
	h.apply(row, delta, pos)
}

// apply adds dn to |r| and dp to |r+| of the totals and of every
// counted region containing row.
func (h *Hierarchy) apply(row []int32, dn, dp int) {
	h.totals.N += dn
	h.totals.Pos += dp
	if h.lat != nil {
		delta := [2]int32{int32(dn - dp), int32(dp)}
		h.lat.AddRow(row, delta[:])
	}
}

// masksForScope returns the node masks to traverse, in bottom-up
// (leaf-to-level-1) order as prescribed by §III.
func (h *Hierarchy) masksForScope(s Scope) []uint32 {
	dim := h.Space.Dim()
	full := uint32(1<<uint(dim)) - 1
	switch s {
	case Leaf:
		return []uint32{full}
	case Top:
		ms := make([]uint32, 0, dim)
		for i := 0; i < dim; i++ {
			ms = append(ms, 1<<uint(i))
		}
		return ms
	}
	all := h.Space.Masks() // level order, ascending; skip level 0
	out := make([]uint32, 0, len(all)-1)
	for i := len(all) - 1; i >= 1; i-- {
		out = append(out, all[i])
	}
	return out
}

// sortRegions orders the IBS deterministically: by level descending
// (leaf first, matching the traversal), then by key. Each region's
// order is computed once: MaxDim − level above the 60 key bits.
func (h *Hierarchy) sortRegions(rs []Region) {
	keys := make([]uint64, len(rs))
	for i := range rs {
		p := rs[i].Pattern
		keys[i] = uint64(pattern.MaxDim-p.Level())<<60 | h.Space.Key(p)
	}
	sort.Sort(regionsByKey{keys, rs})
}

// regionsByKey sorts regions by their precomputed keys.
type regionsByKey struct {
	keys []uint64
	rs   []Region
}

func (s regionsByKey) Len() int           { return len(s.keys) }
func (s regionsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s regionsByKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
}

// levelOf returns the popcount of a mask (the hierarchy level).
func levelOf(mask uint32) int { return bits.OnesCount32(mask) }
