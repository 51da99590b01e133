// Package baselines implements the five subgroup-unfairness mitigation
// methods the paper compares against in §V-B4 / Table III:
//
//   - Coverage (Asudeh et al., ICDE 2018) — pre-processing: detect and
//     patch subgroups with insufficient representation.
//   - Reweighting (Kamiran & Calders, KAIS 2012) — pre-processing:
//     per-(subgroup, label) sample weights equalizing class
//     distribution across subgroups.
//   - FairBalance (Yu et al., 2021) — pre-processing: weights forcing a
//     balanced 1:1 class distribution in every subgroup.
//   - Fair-SMOTE (Chakraborty et al., ESEC/FSE 2021) — pre-processing:
//     kNN-based synthetic oversampling of minority (subgroup, class)
//     cells.
//   - GerryFair (Kearns et al., ICML 2018) — in-processing: a
//     learner/auditor fictitious-play loop (see gerryfair.go for the
//     substitution notes).
//
// The pre-processing baselines implement Preprocessor and can be fed to
// any downstream classifier, exactly like the paper's Remedy method.
package baselines

import (
	"repro/internal/dataset"
	"repro/internal/pattern"
)

// Preprocessor transforms a training dataset to mitigate subgroup
// unfairness. The returned dataset may carry sample weights; callers
// must not assume the input is left unmodified by future
// implementations, so pass a Clone when the original matters.
type Preprocessor interface {
	// Name identifies the method in reports.
	Name() string
	// Apply returns the transformed training set.
	Apply(d *dataset.Dataset) (*dataset.Dataset, error)
}

// leafCells groups instance indices by their full protected-attribute
// assignment (the leaf subgroups): the grouping of the hierarchy's leaf
// node, whose regions come in Key order, so callers drawing from an RNG
// cell by cell repeat under one seed. The shared substrate of the
// reweighting-family baselines.
func leafCells(d *dataset.Dataset, sp *pattern.Space) *pattern.Groups {
	return sp.GroupRows(d, 1<<uint(sp.Dim())-1)
}

// splitByLabel partitions instance indices by their label.
func splitByLabel(d *dataset.Dataset, idx []int32) (pos, neg []int) {
	for _, i := range idx {
		if d.Labels[i] == 1 {
			pos = append(pos, int(i))
		} else {
			neg = append(neg, int(i))
		}
	}
	return pos, neg
}
