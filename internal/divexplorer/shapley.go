package divexplorer

import (
	"fmt"
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/pattern"
)

// This file implements DivExplorer's item attribution: the Shapley
// value of each deterministic element (item) of an unfair subgroup's
// pattern with respect to the subgroup's divergence. The characteristic
// function v(S) is the divergence of the sub-pattern formed by the item
// subset S, so φ_i quantifies how much "being female" vs "being
// African-American" vs "being under 25" each contribute to the
// intersection's unfairness. By Shapley efficiency Σ_i φ_i equals the
// full pattern's divergence (v(∅) = 0 because the empty pattern is the
// whole dataset).

// ItemContribution is one item's attribution.
type ItemContribution struct {
	Slot int    // protected-attribute slot of the item
	Item string // rendered "attr=value"
	Phi  float64
}

// ShapleyAttribution computes the per-item Shapley values of subgroup
// g's divergence, re-evaluating every sub-pattern of g's items on the
// given dataset and predictions (the same inputs Explore audited).
func (r *Report) ShapleyAttribution(d *dataset.Dataset, preds []int, g Subgroup) ([]ItemContribution, error) {
	if len(preds) != d.Len() {
		return nil, fmt.Errorf("divexplorer: %d predictions for %d instances", len(preds), d.Len())
	}
	slots := make([]int, 0, len(g.Pattern))
	for i, v := range g.Pattern {
		if v != pattern.Wildcard {
			slots = append(slots, i)
		}
	}
	nItems := len(slots)
	if nItems == 0 {
		return nil, fmt.Errorf("divexplorer: the whole-dataset subgroup has no items")
	}
	if nItems > 16 {
		return nil, fmt.Errorf("divexplorer: %d items exceed the exact-Shapley limit", nItems)
	}

	// v(S) = divergence of the sub-pattern with g's values on the
	// items of S; empty regions contribute 0.
	lat := r.Space.CountAll(d, confClasses(d, preds), 4)
	nSub := 1 << uint(nItems)
	v := make([]float64, nSub)
	base := r.Stat.Of(confusion(lat.Counts(pattern.NewPattern(len(g.Pattern))))) // S = ∅: γ_d
	q := make(pattern.Pattern, len(g.Pattern))
	for s := 0; s < nSub; s++ {
		for i := range q {
			q[i] = pattern.Wildcard
		}
		for bit, slot := range slots {
			if s&(1<<uint(bit)) != 0 {
				q[slot] = g.Pattern[slot]
			}
		}
		c := confusion(lat.Counts(q))
		if c.TP+c.FP+c.TN+c.FN == 0 {
			continue
		}
		v[s] = fairness.Divergence(r.Stat.Of(c), base)
	}

	// Shapley weights w(|S|) = |S|! (n-|S|-1)! / n!.
	fact := make([]float64, nItems+1)
	fact[0] = 1
	for i := 1; i <= nItems; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	out := make([]ItemContribution, nItems)
	for bit, s := range slots {
		item := fmt.Sprintf("%s=%s", r.Space.Names[s],
			r.Space.Schema.Attrs[r.Space.AttrIdx[s]].Values[g.Pattern[s]])
		var phi float64
		for sub := 0; sub < nSub; sub++ {
			if sub&(1<<uint(bit)) != 0 {
				continue
			}
			size := bits.OnesCount(uint(sub))
			w := fact[size] * fact[nItems-size-1] / fact[nItems]
			phi += w * (v[sub|1<<uint(bit)] - v[sub])
		}
		out[bit] = ItemContribution{Slot: s, Item: item, Phi: phi}
	}
	return out, nil
}

// AttributeWorst audits a model on d and returns the Shapley
// attribution of its most divergent subgroup — the one-call form used
// by the examples.
func AttributeWorst(d *dataset.Dataset, m *ml.Model, stat fairness.Statistic) (Subgroup, []ItemContribution, error) {
	preds := m.Predict(d)
	rep, err := Explore(d, preds, stat, Options{})
	if err != nil {
		return Subgroup{}, nil, err
	}
	if len(rep.Subgroups) == 0 {
		return Subgroup{}, nil, fmt.Errorf("divexplorer: nothing mined")
	}
	worst := rep.Subgroups[0]
	contrib, err := rep.ShapleyAttribution(d, preds, worst)
	return worst, contrib, err
}
