package baselines

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Coverage is the pre-processing baseline of Asudeh et al. [4]: it
// identifies subgroups lacking sufficient representation — the maximal
// uncovered patterns (MUPs) of the protected-attribute lattice — and
// augments the dataset until every identified pattern reaches the
// coverage threshold. Additional tuples are sampled uniformly from the
// subgroup when it is non-empty (as the paper's comparison does), or
// synthesized by combining the pattern with marginal draws for the
// remaining attributes when it is entirely absent.
//
// Coverage addresses representation *quantity*, not class balance, so
// the paper finds it improves accuracy but not subgroup fairness.
type Coverage struct {
	// Threshold is the minimum count per pattern; 0 means 30.
	Threshold int
	// MaxLevel caps the lattice depth inspected; 0 means 2, matching
	// the feasibility constraints in [4].
	MaxLevel int
	// Seed drives the sampling of added tuples.
	Seed int64
}

// Name implements Preprocessor.
func (Coverage) Name() string { return "Coverage" }

// MUPs returns the maximal uncovered patterns: patterns below the
// coverage threshold all of whose parents are covered. Level-ordered,
// deterministic.
func (c Coverage) MUPs(d *dataset.Dataset) ([]pattern.Pattern, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	threshold := c.Threshold
	if threshold <= 0 {
		threshold = 30
	}
	maxLevel := c.MaxLevel
	if maxLevel <= 0 {
		maxLevel = 2
	}
	lat := sp.CountAll(d, d.Labels, 2)
	var mups []pattern.Pattern
	for _, mask := range sp.Masks() {
		if l := bits.OnesCount32(mask); l == 0 || l > maxLevel {
			continue
		}
		sp.EnumerateNode(mask, func(p pattern.Pattern) {
			if lat.Size(p) >= threshold {
				return
			}
			// Maximality: every parent must be covered.
			maximal := true
			sp.Parents(p, func(q pattern.Pattern) {
				if q.Level() > 0 && lat.Size(q) < threshold {
					maximal = false
				}
			})
			if maximal {
				mups = append(mups, p.Clone())
			}
		})
	}
	sort.Slice(mups, func(i, j int) bool {
		if li, lj := mups[i].Level(), mups[j].Level(); li != lj {
			return li < lj
		}
		return sp.Key(mups[i]) < sp.Key(mups[j])
	})
	return mups, nil
}

// Apply implements Preprocessor: it raises every MUP to the coverage
// threshold.
func (c Coverage) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baselines: empty dataset")
	}
	threshold := c.Threshold
	if threshold <= 0 {
		threshold = 30
	}
	mups, err := c.MUPs(d)
	if err != nil {
		return nil, err
	}
	out := d.Clone()
	rng := stats.NewRNG(c.Seed)
	baseRate := d.BaseRate()
	// Per-attribute marginal pools for synthesizing absent patterns.
	marginals := make([][]int32, len(d.Schema.Attrs))
	for a := range d.Schema.Attrs {
		marginals[a] = make([]int32, d.Len())
		for i, row := range d.Rows {
			marginals[a][i] = row[a]
		}
	}
	// One grouping per MUP mask finds every MUP's rows.
	groups := make(map[uint32]*pattern.Groups)
	for _, p := range mups {
		g := groups[p.Mask()]
		if g == nil {
			g = sp.GroupRows(d, p.Mask())
			groups[p.Mask()] = g
		}
		members := g.Rows(p)
		need := threshold - len(members)
		for k := 0; k < need; k++ {
			var row []int32
			var label int8
			if len(members) > 0 {
				j := members[rng.Intn(len(members))]
				row = append([]int32(nil), d.Rows[j]...)
				label = d.Labels[j]
			} else {
				// Synthesize: pattern values fixed, the rest drawn from
				// the dataset's marginals, label from the base rate.
				row = make([]int32, len(d.Schema.Attrs))
				for a := range row {
					row[a] = marginals[a][rng.Intn(len(marginals[a]))]
				}
				for s, v := range p {
					if v != pattern.Wildcard {
						row[sp.AttrIdx[s]] = int32(v)
					}
				}
				if rng.Float64() < baseRate {
					label = 1
				}
			}
			if err := out.Append(row, label); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
