package divexplorer

import (
	"math"
	"testing"

	"repro/internal/fairness"
)

func TestShapleyEfficiency(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// For every mined subgroup, the attributions must sum to the
	// subgroup's divergence (Shapley efficiency, v(∅)=0).
	for _, g := range rep.Subgroups {
		contribs, err := rep.ShapleyAttribution(d, preds, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(contribs) != g.Pattern.Level() {
			t.Fatalf("%s: %d contributions for %d items",
				rep.Space.String(g.Pattern), len(contribs), g.Pattern.Level())
		}
		var sum float64
		for _, c := range contribs {
			sum += c.Phi
		}
		if math.Abs(sum-g.Divergence) > 1e-9 {
			t.Fatalf("%s: Σφ = %v, divergence = %v", rep.Space.String(g.Pattern), sum, g.Divergence)
		}
	}
}

func TestShapleySingleItemIsDivergence(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Subgroups {
		if g.Pattern.Level() != 1 {
			continue
		}
		contribs, err := rep.ShapleyAttribution(d, preds, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(contribs[0].Phi-g.Divergence) > 1e-12 {
			t.Fatalf("single-item φ = %v, divergence = %v", contribs[0].Phi, g.Divergence)
		}
	}
}

func TestShapleyAttributesInteraction(t *testing.T) {
	// In unfairPredictions the FPR burst targets exactly (race=B,
	// sex=M): both items must carry positive contributions, and their
	// rendered names must match the schema.
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Subgroups[0] // (race=B, sex=M)
	contribs, err := rep.ShapleyAttribution(d, preds, top)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]float64{}
	for _, c := range contribs {
		names[c.Item] = c.Phi
	}
	if names["race=B"] <= 0 || names["sex=M"] <= 0 {
		t.Fatalf("both items should contribute positively: %v", names)
	}
}

func TestShapleyErrors(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.ShapleyAttribution(d, preds[:5], rep.Subgroups[0]); err == nil {
		t.Fatal("prediction length mismatch must error")
	}
	empty := rep.Subgroups[0]
	empty.Pattern = empty.Pattern.Clone()
	for i := range empty.Pattern {
		empty.Pattern[i] = -1
	}
	if _, err := rep.ShapleyAttribution(d, preds, empty); err == nil {
		t.Fatal("whole-dataset pattern must error")
	}
}
