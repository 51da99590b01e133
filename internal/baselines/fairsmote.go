package baselines

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// FairSMOTE is the pre-processing baseline of Chakraborty et al. [8]:
// every (intersectional subgroup, class) cell is oversampled with
// synthetic instances until all cells within a subgroup reach the same
// size, yielding both equal and balanced class distributions. Synthetic
// rows are generated SMOTE-style: a seed instance is combined with one
// of its smoteK = 5 nearest neighbors inside the same cell (Hamming
// distance on the categorical attributes), taking each attribute from
// either parent at random — the categorical analogue of SMOTE's
// interpolation.
//
// The k-nearest-neighbor search per synthetic instance is what makes
// Fair-SMOTE orders of magnitude slower than the other pre-processing
// methods (Table III).
type FairSMOTE struct {
	// Seed drives seed/neighbor/crossover draws.
	Seed int64
}

// smoteK is Fair-SMOTE's neighborhood size.
const smoteK = 5

// Name implements Preprocessor.
func (FairSMOTE) Name() string { return "Fair-SMOTE" }

// Apply implements Preprocessor.
func (f FairSMOTE) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baselines: empty dataset")
	}
	rng := stats.NewRNG(f.Seed)
	out := d.Clone()
	cells := leafCells(d, sp)
	for c := 0; c < cells.Len(); c++ {
		_, rows := cells.Region(c)
		pos, neg := splitByLabel(d, rows)
		target := len(pos)
		if len(neg) > target {
			target = len(neg)
		}
		for _, cell := range [][]int{neg, pos} {
			if len(cell) == 0 || len(cell) >= target {
				continue
			}
			for add := target - len(cell); add > 0; add-- {
				seed := cell[rng.Intn(len(cell))]
				nb := nearestNeighbor(d, cell, seed, smoteK, rng)
				row := crossover(d.Rows[seed], d.Rows[nb], rng)
				if err := out.Append(row, d.Labels[seed]); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// nearestNeighbor picks uniformly among the k cell members closest to
// seed by Hamming distance (excluding seed itself). Cells of size 1
// return the seed.
func nearestNeighbor(d *dataset.Dataset, cell []int, seed, k int, rng interface{ Intn(int) int }) int {
	if len(cell) == 1 {
		return seed
	}
	type cand struct {
		idx, dist int
	}
	cands := make([]cand, 0, len(cell)-1)
	srow := d.Rows[seed]
	for _, i := range cell {
		if i == seed {
			continue
		}
		dist := 0
		for a, v := range d.Rows[i] {
			if v != srow[a] {
				dist++
			}
		}
		cands = append(cands, cand{i, dist})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	return cands[rng.Intn(k)].idx
}

// crossover builds a synthetic row taking each attribute from either
// parent with equal probability.
func crossover(a, b []int32, rng interface{ Intn(int) int }) []int32 {
	row := make([]int32, len(a))
	for i := range row {
		if rng.Intn(2) == 0 {
			row[i] = a[i]
		} else {
			row[i] = b[i]
		}
	}
	return row
}
