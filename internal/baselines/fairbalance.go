package baselines

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pattern"
)

// FairBalance is the reweighting baseline of Yu et al. [35]: every
// intersectional subgroup receives not only an equal but a *balanced*
// (1:1) class distribution, targeting equalized odds:
//
//	w(g, y) = |g| / (2 · |g ∩ y|)
//
// so each subgroup keeps its total mass |g| but splits it evenly
// between the classes. On the heavily label-imbalanced datasets of the
// evaluation this costs substantial accuracy (Table III), because the
// training distribution departs far from the test distribution.
type FairBalance struct{}

// Name implements Preprocessor.
func (FairBalance) Name() string { return "FairBalance" }

// Apply implements Preprocessor.
func (FairBalance) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("baselines: empty dataset")
	}
	out := d.Clone()
	out.EnsureWeights()
	cells := leafCells(d, sp)
	for c := 0; c < cells.Len(); c++ {
		_, rows := cells.Region(c)
		pos, neg := splitByLabel(d, rows)
		g := float64(len(rows))
		for _, members := range [][]int{neg, pos} {
			if len(members) == 0 {
				continue
			}
			w := g / (2 * float64(len(members)))
			for _, i := range members {
				out.Weights[i] = w
			}
		}
	}
	return out, nil
}
