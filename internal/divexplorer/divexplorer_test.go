package divexplorer

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/synth"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "race", Values: []string{"A", "B"}, Protected: true},
			{Name: "sex", Values: []string{"M", "F"}, Protected: true},
			{Name: "other", Values: []string{"x", "y"}},
		},
	}
}

// unfairPredictions builds a dataset and prediction vector where the
// classifier falsely flags negatives of subgroup (race=B, sex=M) at a
// much higher rate than everyone else.
func unfairPredictions(t *testing.T) (*dataset.Dataset, []int) {
	t.Helper()
	d := dataset.New(testSchema())
	r := stats.NewRNG(5)
	var preds []int
	for i := 0; i < 4000; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(2))}
		label := int8(r.Intn(2))
		pred := int(label) // mostly perfect predictions…
		if label == 0 {
			fprate := 0.05
			if row[0] == 1 && row[1] == 0 {
				fprate = 0.6 // …except (race=B, sex=M) negatives
			}
			if r.Float64() < fprate {
				pred = 1
			}
		}
		d.Append(row, label)
		preds = append(preds, pred)
	}
	return d, preds
}

func TestExploreFindsUnfairSubgroup(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall < 0.1 || rep.Overall > 0.35 {
		t.Fatalf("overall FPR = %v", rep.Overall)
	}
	if len(rep.Subgroups) == 0 {
		t.Fatal("no subgroups mined")
	}
	// The top-ranked subgroup must be the injected one.
	top := rep.Subgroups[0]
	if got := rep.Space.String(top.Pattern); got != "(race=B, sex=M)" {
		t.Fatalf("top subgroup = %s (div %v)", got, top.Divergence)
	}
	if !top.Significant || top.Divergence < 0.2 {
		t.Fatalf("top subgroup evidence: %+v", top)
	}
	// Ranking must be by divergence descending.
	for i := 1; i < len(rep.Subgroups); i++ {
		if rep.Subgroups[i].Divergence > rep.Subgroups[i-1].Divergence {
			t.Fatal("subgroups not ranked by divergence")
		}
	}
}

// adultData is a synthetic Adult sample over the given protected
// attributes, with predictions that flip 20% of the labels.
func adultData(t *testing.T, rows int, protected []string) (*dataset.Dataset, []int) {
	t.Helper()
	d := synth.AdultN(rows, 3)
	if err := d.Schema.SetProtected(protected...); err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(4)
	preds := make([]int, d.Len())
	for i, y := range d.Labels {
		if preds[i] = int(y); r.Float64() < 0.2 {
			preds[i] = 1 - preds[i]
		}
	}
	return d, preds
}

// TestExploreSubgroupValuesMatchBruteForce checks the mined subgroups,
// their statistics and the itemsets counter against a dataset scan, on
// the dense cube and on the hash table the lattice counter falls back
// to for wide spaces. The brute-force candidates are the distinct row
// projections: every non-empty region holds a row.
func TestExploreSubgroupValuesMatchBruteForce(t *testing.T) {
	two, twoPreds := unfairPredictions(t)
	adult, adultPreds := adultData(t, 3000, synth.AdultProtected)
	wide, widePreds := adultData(t, 200, synth.AdultScalabilityProtected)
	for _, in := range []struct {
		name  string
		d     *dataset.Dataset
		preds []int
		opts  Options
		dense bool
	}{
		{"two-attr", two, twoPreds, Options{MinSupport: 0.05}, true},
		{"adult", adult, adultPreds, Options{}, true},
		{"wide", wide, widePreds, Options{MaxLevel: 3}, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			d, preds, opts := in.d, in.preds, in.opts.withDefaults()
			sp, err := pattern.NewSpace(d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if got := sp.CubeFits(d.Len(), 4); got != in.dense {
				t.Fatalf("CubeFits = %v, want %v", got, in.dense)
			}
			reg := obs.NewRegistry()
			rep, err := ExploreCtx(obs.WithMetrics(context.Background(), reg), d, preds, fairness.FPR, opts)
			if err != nil {
				t.Fatal(err)
			}
			scan := func(p pattern.Pattern) (c ml.Confusion) {
				for i := range d.Rows {
					if sp.MatchRow(p, d.Rows[i]) {
						c.Observe(int(d.Labels[i]), preds[i], 1)
					}
				}
				return c
			}
			candidates := map[uint64]bool{}
			for _, row := range d.Rows {
				for m := 0; m < 1<<uint(sp.Dim()); m++ {
					p := pattern.NewPattern(sp.Dim())
					for s := range p {
						if m&(1<<uint(s)) != 0 {
							p[s] = int16(row[sp.AttrIdx[s]])
						}
					}
					candidates[sp.Key(p)] = true
				}
			}
			if got := reg.Counter("divexplorer.itemsets").Value(); got != int64(len(candidates)) {
				t.Fatalf("itemsets = %d, want %d non-empty regions", got, len(candidates))
			}
			totalN, totalK := fairness.FPR.BaseCount(scan(pattern.NewPattern(sp.Dim())))
			want := map[uint64]Subgroup{}
			for k := range candidates {
				p := sp.DecodeKey(k)
				c := scan(p)
				n := int(c.TP + c.FP + c.TN + c.FN)
				if l := p.Level(); l == 0 || (opts.MaxLevel > 0 && l > opts.MaxLevel) ||
					n < int(opts.MinSupport*float64(d.Len())) {
					continue
				}
				g := Subgroup{N: n, Conf: c, Value: c.FPR()}
				baseN, baseK := fairness.FPR.BaseCount(c)
				if res, err := stats.WelchT(stats.BernoulliSummary(baseN, baseK),
					stats.BernoulliSummary(totalN-baseN, totalK-baseK)); err == nil {
					g.T, g.P = res.T, res.P
				}
				want[k] = g
			}
			if len(want) == 0 || len(rep.Subgroups) != len(want) {
				t.Fatalf("mined %d subgroups, brute force finds %d", len(rep.Subgroups), len(want))
			}
			for _, g := range rep.Subgroups {
				w, ok := want[sp.Key(g.Pattern)]
				if !ok || g.N != w.N || g.Conf != w.Conf || math.Abs(g.Value-w.Value) > 1e-12 || g.T != w.T || g.P != w.P {
					t.Fatalf("%s: mined %+v, brute force %+v (found %v)", sp.String(g.Pattern), g, w, ok)
				}
			}
		})
	}
}

func TestExploreSupportFilter(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Subgroups {
		if g.Support < 0.3 {
			t.Fatalf("subgroup with support %v passed the filter", g.Support)
		}
	}
}

func TestExploreMaxLevel(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Subgroups) != 4 { // race: 2 values, sex: 2 values
		t.Fatalf("level-1 subgroups = %d, want 4", len(rep.Subgroups))
	}
	for _, g := range rep.Subgroups {
		if g.Pattern.Level() != 1 {
			t.Fatal("MaxLevel violated")
		}
	}
}

// TestIndependentFairnessHidesIntersection reproduces Example 1's
// phenomenon: each single attribute looks fair, the intersection does
// not.
func TestIndependentFairnessHidesIntersection(t *testing.T) {
	d := dataset.New(testSchema())
	r := stats.NewRNG(9)
	var preds []int
	for i := 0; i < 8000; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(2))}
		label := int8(r.Intn(2))
		pred := int(label)
		if label == 0 {
			// (B,M) and (A,F) get high FPR; (A,M) and (B,F) get low, so
			// both marginals even out.
			fprate := 0.05
			if (row[0] == 1) == (row[1] == 0) {
				fprate = 0.35
			}
			if r.Float64() < fprate {
				pred = 1
			}
		}
		d.Append(row, label)
		preds = append(preds, pred)
	}
	top, err := Explore(d, preds, fairness.FPR, Options{MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range top.Subgroups {
		if g.Divergence > 0.05 {
			t.Fatalf("marginal subgroup %s diverges by %v", top.Space.String(g.Pattern), g.Divergence)
		}
	}
	full, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Subgroups[0].Divergence < 0.1 {
		t.Fatal("intersectional divergence should be exposed")
	}
	if full.Subgroups[0].Pattern.Level() != 2 {
		t.Fatal("the most divergent subgroup should be an intersection")
	}
}

func TestFNRStatistic(t *testing.T) {
	d := dataset.New(testSchema())
	r := stats.NewRNG(11)
	var preds []int
	for i := 0; i < 3000; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(2))}
		label := int8(r.Intn(2))
		pred := int(label)
		if label == 1 && row[0] == 0 && r.Float64() < 0.5 {
			pred = 0 // misses positives of race=A
		}
		d.Append(row, label)
		preds = append(preds, pred)
	}
	rep, err := Explore(d, preds, fairness.FNR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Divergence is absolute, so both (race=A) with FNR ≈ 0.5 and its
	// complement (race=B) with FNR ≈ 0 diverge from the overall ≈ 0.25.
	// All race-determined subgroups must be significant; the sex
	// marginals must not be.
	for _, g := range rep.Subgroups {
		name := rep.Space.String(g.Pattern)
		switch name {
		case "(race=A)":
			if g.Value < 0.4 || !g.Significant {
				t.Fatalf("(race=A): %+v", g)
			}
		case "(sex=M)", "(sex=F)":
			if g.Significant {
				t.Fatalf("%s should not be significant: %+v", name, g)
			}
		}
	}
	if rep.Subgroups[0].Pattern[0] == -1 {
		t.Fatal("the top FNR subgroup must be race-determined")
	}
}

func TestUnfairThreshold(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfair := rep.Unfair(0.3)
	for _, g := range unfair {
		if g.Divergence <= 0.3 {
			t.Fatal("Unfair returned a fair subgroup")
		}
	}
	// Only the injected (race=B, sex=M) diverges by more than 0.3.
	if len(unfair) == 0 || len(unfair) >= len(rep.Subgroups) {
		t.Fatalf("unfair count %d of %d looks wrong", len(unfair), len(rep.Subgroups))
	}
}

func TestFairnessIndexAndViolation(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := rep.FairnessIndex(0.1)
	if idx <= 0 {
		t.Fatalf("index = %v, want positive for unfair predictions", idx)
	}
	v := rep.Violation()
	if v <= 0 || v > 1 {
		t.Fatalf("violation = %v", v)
	}
	// Perfect predictions give a zero index and violation.
	perfect := make([]int, d.Len())
	for i := range perfect {
		perfect[i] = int(d.Labels[i])
	}
	rep2, err := Explore(d, perfect, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FairnessIndex(0.1) != 0 || rep2.Violation() != 0 {
		t.Fatal("perfect predictions must score zero")
	}
}

func TestExploreErrors(t *testing.T) {
	d, _ := unfairPredictions(t)
	if _, err := Explore(d, []int{1}, fairness.FPR, Options{}); err == nil {
		t.Fatal("prediction length mismatch must error")
	}
	empty := dataset.New(testSchema())
	if _, err := Explore(empty, nil, fairness.FPR, Options{}); err == nil {
		t.Fatal("empty dataset must error")
	}
	noProt := dataset.New(&dataset.Schema{Target: "y",
		Attrs: []dataset.Attr{{Name: "a", Values: []string{"0"}}}})
	noProt.Append([]int32{0}, 0)
	if _, err := Explore(noProt, []int{0}, fairness.FPR, Options{}); err == nil {
		t.Fatal("no protected attributes must error")
	}
}

func TestExploreOnSyntheticCompas(t *testing.T) {
	// End-to-end: train a decision tree on synthetic COMPAS, audit FPR
	// on the held-out split; the injected bias must surface as unfair
	// subgroups, echoing Example 1.
	d := synth.Compas(1)
	train, test := d.StratifiedSplit(0.7, 1)
	m, err := ml.TrainKind(train, ml.DT, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(test, m.Predict(test), fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfair := rep.Unfair(0.1)
	if len(unfair) == 0 {
		t.Fatal("synthetic COMPAS should produce unfair subgroups under a DT")
	}
	if rep.FairnessIndex(0.1) <= 0 {
		t.Fatal("fairness index should be positive before remedy")
	}
}

// BenchmarkExplore times one FPR audit of the remedy-train workload's
// test side: a decision tree fit on the 70% stratified split of a
// full-size (45,222-row) synthetic Adult, audited over the remaining
// 13,567 rows (6 protected attributes, 10,800 regions).
func BenchmarkExplore(b *testing.B) {
	train, test := synth.AdultN(45222, 1).StratifiedSplit(0.7, 1)
	m, err := ml.TrainKind(train, ml.DT, 1)
	if err != nil {
		b.Fatal(err)
	}
	preds := m.Predict(test)
	b.Run("adult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(test, preds, fairness.FPR, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestTopK(t *testing.T) {
	d, preds := unfairPredictions(t)
	rep, err := Explore(d, preds, fairness.FPR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) = %d", len(top))
	}
	if top[0].Divergence < top[2].Divergence {
		t.Fatal("TopK not ranked")
	}
	if got := rep.TopK(1000); len(got) != len(rep.Subgroups) {
		t.Fatal("oversized k must clamp")
	}
	if got := rep.TopK(-1); len(got) != 0 {
		t.Fatal("negative k must clamp to zero")
	}
}
