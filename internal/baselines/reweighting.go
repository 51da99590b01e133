package baselines

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pattern"
)

// Reweighting is the Kamiran–Calders pre-processing baseline [19],
// applied at the intersectional-subgroup granularity as in the paper's
// comparison: each (subgroup g, label y) combination receives the
// weight
//
//	w(g, y) = (|g| · |y|) / (N · |g ∩ y|)
//
// — the ratio of the expected to the observed probability of the
// combination under independence of subgroup and label. After
// reweighting, every subgroup carries the dataset's overall class
// distribution, which drives the fairness violation to zero for
// learners that honor sample weights.
type Reweighting struct{}

// Name implements Preprocessor.
func (Reweighting) Name() string { return "Reweighting" }

// Apply implements Preprocessor. The returned dataset shares rows with
// d but carries fresh weights.
func (Reweighting) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baselines: empty dataset")
	}
	out := d.Clone()
	out.EnsureWeights()
	n := float64(d.Len())
	classN := [2]float64{float64(d.Len() - d.PositiveCount()), float64(d.PositiveCount())}
	cells := leafCells(d, sp)
	for c := 0; c < cells.Len(); c++ {
		_, rows := cells.Region(c)
		pos, neg := splitByLabel(d, rows)
		g := float64(len(rows))
		byLabel := [2][]int{neg, pos}
		for y, members := range byLabel {
			if len(members) == 0 {
				continue
			}
			w := (g * classN[y]) / (n * float64(len(members)))
			for _, i := range members {
				out.Weights[i] = w
			}
		}
	}
	return out, nil
}
