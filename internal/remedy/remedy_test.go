package remedy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/synth"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "a", Values: []string{"0", "1", "2"}, Protected: true},
			{Name: "b", Values: []string{"0", "1", "2"}, Protected: true},
		},
	}
}

// singleBias builds a dataset where only region (a=1, b=2) is skewed
// (≈70% positive) against an otherwise 40%-positive background.
func singleBias(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New(testSchema())
	r := stats.NewRNG(3)
	for i := 0; i < 6000; i++ {
		row := []int32{int32(r.Intn(3)), int32(r.Intn(3))}
		rate := 0.4
		if row[0] == 1 && row[1] == 2 {
			rate = 0.7
		}
		var label int8
		if r.Float64() < rate {
			label = 1
		}
		d.Append(row, label)
	}
	return d
}

func leafOpts(tech Technique) Options {
	return Options{
		Identify:  core.Config{TauC: 0.3, T: 1, Scope: core.Leaf},
		Technique: tech,
		Seed:      7,
	}
}

func regionCounts(t *testing.T, d *dataset.Dataset, pairs ...string) pattern.Counts {
	t.Helper()
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.Parse(pairs...)
	if err != nil {
		t.Fatal(err)
	}
	return sp.CountPattern(d, p)
}

func TestApplyRejectsBadInput(t *testing.T) {
	d := singleBias(t)
	if _, _, err := Apply(d, Options{Identify: core.Config{TauC: 0.1, T: 1}, Technique: "bogus"}); err == nil {
		t.Fatal("unknown technique must error")
	}
	for _, cfg := range []core.Config{{TauC: -1, T: 1}, {TauC: 0.1, T: 0}} {
		out, rep, err := Apply(d, Options{Identify: cfg})
		if err == nil {
			t.Fatalf("invalid config %+v must error", cfg)
		}
		if out != nil || rep != nil {
			t.Fatalf("config error %v must return no dataset and no report", err)
		}
	}
	noProt := dataset.New(&dataset.Schema{Target: "y",
		Attrs: []dataset.Attr{{Name: "a", Values: []string{"0"}}}})
	noProt.Append([]int32{0}, 1)
	if _, _, err := Apply(noProt, leafOpts(Massaging)); err == nil {
		t.Fatal("no protected attributes must error")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	d := singleBias(t)
	before := d.Len()
	pos := d.PositiveCount()
	if _, _, err := Apply(d, leafOpts(Massaging)); err != nil {
		t.Fatal(err)
	}
	if d.Len() != before || d.PositiveCount() != pos {
		t.Fatal("Apply mutated the input dataset")
	}
}

// TestTechniquesHitTargetRatio verifies Equation (1): with a single
// biased leaf region, each technique moves the region's imbalance score
// to its (snapshot) neighborhood ratio within rounding tolerance.
func TestTechniquesHitTargetRatio(t *testing.T) {
	d := singleBias(t)
	// Snapshot evidence for the biased region.
	res, err := core.IdentifyOptimized(d, core.Config{TauC: 0.3, T: 1, Scope: core.Leaf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 1 {
		t.Fatalf("expected exactly 1 biased leaf region, got %d", len(res.Regions))
	}
	rho := res.Regions[0].NeighborRatio
	for _, tech := range Techniques {
		out, rep, err := Apply(d, leafOpts(tech))
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if rep.BiasedRegions == 0 {
			t.Fatalf("%s: no biased regions reported", tech)
		}
		got := regionCounts(t, out, "a", "1", "b", "2").Ratio()
		if math.Abs(got-rho) > 0.02 {
			t.Fatalf("%s: post-remedy ratio %v, want ≈ %v", tech, got, rho)
		}
	}
}

func TestOversamplingOnlyAdds(t *testing.T) {
	d := singleBias(t)
	out, rep, err := Apply(d, leafOpts(Oversampling))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 0 || rep.Flipped != 0 {
		t.Fatalf("oversampling removed %d / flipped %d", rep.Removed, rep.Flipped)
	}
	if rep.Added == 0 || out.Len() != d.Len()+rep.Added {
		t.Fatalf("added %d, sizes %d -> %d", rep.Added, d.Len(), out.Len())
	}
	// The biased region had excess positives, so negatives are added.
	before := regionCounts(t, d, "a", "1", "b", "2")
	after := regionCounts(t, out, "a", "1", "b", "2")
	if after.Pos != before.Pos || after.Neg() <= before.Neg() {
		t.Fatalf("counts before %+v after %+v", before, after)
	}
}

func TestUndersamplingOnlyRemoves(t *testing.T) {
	d := singleBias(t)
	out, rep, err := Apply(d, leafOpts(Undersampling))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 0 || rep.Flipped != 0 {
		t.Fatalf("undersampling added %d / flipped %d", rep.Added, rep.Flipped)
	}
	if rep.Removed == 0 || out.Len() != d.Len()-rep.Removed {
		t.Fatalf("removed %d, sizes %d -> %d", rep.Removed, d.Len(), out.Len())
	}
	before := regionCounts(t, d, "a", "1", "b", "2")
	after := regionCounts(t, out, "a", "1", "b", "2")
	if after.Neg() != before.Neg() || after.Pos >= before.Pos {
		t.Fatalf("counts before %+v after %+v", before, after)
	}
}

func TestMassagingPreservesSize(t *testing.T) {
	d := singleBias(t)
	out, rep, err := Apply(d, leafOpts(Massaging))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != d.Len() {
		t.Fatalf("massaging changed the dataset size: %d -> %d", d.Len(), out.Len())
	}
	if rep.Flipped == 0 || rep.Added != 0 || rep.Removed != 0 {
		t.Fatalf("report %+v", rep)
	}
	// Total flips must equal the change in positive count.
	if d.PositiveCount()-out.PositiveCount() != rep.Flipped {
		t.Fatalf("flip accounting: %d positives removed vs %d flips",
			d.PositiveCount()-out.PositiveCount(), rep.Flipped)
	}
}

func TestPreferentialSamplingBalancesAddsAndRemoves(t *testing.T) {
	d := singleBias(t)
	out, rep, err := Apply(d, leafOpts(PreferentialSampling))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added == 0 || rep.Removed == 0 {
		t.Fatalf("PS should both add and remove, got %+v", rep)
	}
	if rep.Added != rep.Removed {
		t.Fatalf("PS adds (%d) must equal removes (%d) when pools suffice", rep.Added, rep.Removed)
	}
	if out.Len() != d.Len() {
		t.Fatalf("PS size changed: %d -> %d", d.Len(), out.Len())
	}
}

func TestPreferentialSamplingPicksBorderline(t *testing.T) {
	// Region (a=1,b=2) is positive-skewed; PS must remove positives the
	// Naïve Bayes ranker scores closest to the negative class. The
	// remaining positives should therefore have higher mean score than
	// the removed ones. We check indirectly: the region keeps its most
	// confidently positive instances — its post-remedy positive set is a
	// subset biased toward the original high scorers. Since all rows in
	// one region are identical feature-wise here (only two attributes),
	// the stronger check is that the count matches Equation (1), which
	// TestTechniquesHitTargetRatio covers; here we just assert the
	// region-level direction of change.
	d := singleBias(t)
	out, _, err := Apply(d, leafOpts(PreferentialSampling))
	if err != nil {
		t.Fatal(err)
	}
	before := regionCounts(t, d, "a", "1", "b", "2")
	after := regionCounts(t, out, "a", "1", "b", "2")
	if after.Pos >= before.Pos || after.Neg() <= before.Neg() {
		t.Fatalf("PS direction wrong: before %+v after %+v", before, after)
	}
}

func TestLatticeRemedyReducesIBS(t *testing.T) {
	d := synth.Compas(1)
	cfg := core.Config{TauC: 0.1, T: 1}
	before, err := core.IdentifyOptimized(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := Apply(d, Options{Identify: cfg, Technique: PreferentialSampling, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after, err := core.IdentifyOptimized(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Regions) >= len(before.Regions) {
		t.Fatalf("remedy did not shrink the IBS: %d -> %d (report %+v)",
			len(before.Regions), len(after.Regions), rep)
	}
}

func TestScopesTouchDifferentAmounts(t *testing.T) {
	d := synth.Compas(2)
	cfg := core.Config{TauC: 0.1, T: 1}
	touched := func(scope core.Scope) int {
		opts := Options{Identify: cfg, Technique: Massaging, Seed: 1}
		opts.Identify.Scope = scope
		_, rep, err := Apply(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Flipped
	}
	lattice := touched(core.Lattice)
	leaf := touched(core.Leaf)
	if lattice <= leaf {
		t.Fatalf("lattice should update more instances than leaf: %d vs %d", lattice, leaf)
	}
}

func TestEquationOneProperty(t *testing.T) {
	// k = (P − ρN)/(1+ρ) must satisfy (P−k)/(N+k) ≈ ρ for any feasible
	// inputs — the preferential-sampling / massaging update count.
	f := func(pRaw, nRaw uint16, rhoRaw uint8) bool {
		P := float64(pRaw%5000) + 1
		N := float64(nRaw%5000) + 1
		rho := float64(rhoRaw%200)/100 + 0.01 // (0.01, 2.01)
		if P/N <= rho {
			return true // not the ratio-high case
		}
		k := (P - rho*N) / (1 + rho)
		got := (P - k) / (N + k)
		return math.Abs(got-rho) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSentinelNeighborhoodSkipped(t *testing.T) {
	// Neighborhood with zero negatives → ratio −1 → region skipped.
	d := dataset.New(testSchema())
	r := stats.NewRNG(5)
	for i := 0; i < 3000; i++ {
		row := []int32{int32(r.Intn(3)), int32(r.Intn(3))}
		label := int8(1) // everything positive…
		if row[0] == 0 && row[1] == 0 && r.Float64() < 0.5 {
			label = 0 // …except half of one region
		}
		d.Append(row, label)
	}
	_, rep, err := Apply(d, leafOpts(Oversampling))
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, a := range rep.Actions {
		if a.Skipped != "" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("expected skipped regions for undefined neighborhood ratios")
	}
}

func TestTechniqueNames(t *testing.T) {
	if Oversampling.Name() != "Oversampling" ||
		Undersampling.Name() != "Undersampling" ||
		PreferentialSampling.Name() != "Preferential Sampling" ||
		Massaging.Name() != "Data Massaging" {
		t.Fatal("technique names")
	}
	if Technique("x").Name() != "x" {
		t.Fatal("unknown technique name should echo")
	}
}

func TestDefaultTechniqueIsPS(t *testing.T) {
	d := singleBias(t)
	_, rep, err := Apply(d, Options{Identify: core.Config{TauC: 0.3, T: 1, Scope: core.Leaf}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Technique != PreferentialSampling {
		t.Fatalf("default technique = %s", rep.Technique)
	}
}

func TestDeterminism(t *testing.T) {
	d := synth.CompasN(1500, 3)
	run := func() (*dataset.Dataset, *Report) {
		out, rep, err := Apply(d, Options{
			Identify:  core.Config{TauC: 0.1, T: 1},
			Technique: Undersampling,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	a, ra := run()
	b, rb := run()
	if a.Len() != b.Len() || ra.Removed != rb.Removed {
		t.Fatal("remedy is not deterministic for a fixed seed")
	}
	for i := range a.Rows {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ between identical runs")
		}
	}
}

func TestParseTechnique(t *testing.T) {
	cases := map[string]Technique{
		"PS": PreferentialSampling, "ps": PreferentialSampling,
		"US": Undersampling, "DP": Oversampling, "ms": Massaging,
		"Preferential Sampling": PreferentialSampling,
		"data massaging":        Massaging,
		" us ":                  Undersampling,
	}
	for in, want := range cases {
		got, err := ParseTechnique(in)
		if err != nil || got != want {
			t.Fatalf("ParseTechnique(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTechnique("smote"); err == nil {
		t.Fatal("unknown technique must error")
	}
}
