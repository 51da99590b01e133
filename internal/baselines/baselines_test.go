package baselines

import (
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/fairness"
	"repro/internal/ml"
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
			{Name: "f", Values: []string{"0", "1", "2"}},
		},
	}
}

// skewedData builds a dataset whose subgroups have very different class
// distributions.
func skewedData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New(testSchema())
	r := stats.NewRNG(1)
	for i := 0; i < 4000; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(3))}
		rate := 0.2
		if row[0] == 1 && row[1] == 0 {
			rate = 0.8
		}
		var label int8
		if r.Float64() < rate {
			label = 1
		}
		d.Append(row, label)
	}
	return d
}

func cellWeightShares(t *testing.T, d *dataset.Dataset) map[string][2]float64 {
	t.Helper()
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][2]float64{}
	cells := leafCells(d, sp)
	for c := 0; c < cells.Len(); c++ {
		key, rows := cells.Region(c)
		var byClass [2]float64
		for _, i := range rows {
			byClass[d.Labels[i]] += d.Weight(int(i))
		}
		out[sp.String(sp.DecodeKey(key))] = byClass
	}
	return out
}

func TestReweightingEqualizesClassDistribution(t *testing.T) {
	d := skewedData(t)
	out, err := Reweighting{}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != d.Len() {
		t.Fatal("reweighting must not change the size")
	}
	overallPos := d.BaseRate()
	for name, byClass := range cellWeightShares(t, out) {
		total := byClass[0] + byClass[1]
		if total == 0 {
			continue
		}
		got := byClass[1] / total
		if math.Abs(got-overallPos) > 1e-9 {
			t.Fatalf("%s: weighted positive share %v, want %v", name, got, overallPos)
		}
	}
	// Weight mass per subgroup stays equal to the subgroup size.
	sp, _ := pattern.NewSpace(d.Schema)
	cells := leafCells(out, sp)
	for c := 0; c < cells.Len(); c++ {
		key, rows := cells.Region(c)
		var mass float64
		for _, i := range rows {
			mass += out.Weight(int(i))
		}
		if math.Abs(mass-float64(len(rows))) > 1e-6 {
			t.Fatalf("cell %s mass %v != size %d", sp.String(sp.DecodeKey(key)), mass, len(rows))
		}
	}
}

func TestFairBalanceBalancesClasses(t *testing.T) {
	d := skewedData(t)
	out, err := FairBalance{}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	for name, byClass := range cellWeightShares(t, out) {
		if byClass[0] == 0 || byClass[1] == 0 {
			continue
		}
		if math.Abs(byClass[0]-byClass[1]) > 1e-9 {
			t.Fatalf("%s: class masses %v vs %v, want equal", name, byClass[0], byClass[1])
		}
	}
}

func TestWeightBaselinesReduceViolation(t *testing.T) {
	d := skewedData(t)
	train, test := d.StratifiedSplit(0.7, 2)
	violation := func(tr *dataset.Dataset) float64 {
		m, err := ml.Train(tr, ml.NewLogisticRegression(ml.LogRegParams{Epochs: 120, LearningRate: 0.8}))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := divexplorer.Explore(test, m.Predict(test), fairness.FPR, divexplorer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Violation()
	}
	base := violation(train)
	rw, err := Reweighting{}.Apply(train)
	if err != nil {
		t.Fatal(err)
	}
	if v := violation(rw); v > base {
		t.Fatalf("reweighting violation %v > original %v", v, base)
	}
	fb, err := FairBalance{}.Apply(train)
	if err != nil {
		t.Fatal(err)
	}
	if v := violation(fb); v > base {
		t.Fatalf("fairbalance violation %v > original %v", v, base)
	}
}

func TestCoverageMUPs(t *testing.T) {
	d := dataset.New(testSchema())
	r := stats.NewRNG(3)
	// (race=B, sex=F) is nearly absent.
	for i := 0; i < 1000; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(3))}
		if row[0] == 1 && row[1] == 1 && r.Float64() < 0.98 {
			row[1] = 0
		}
		d.Append(row, int8(r.Intn(2)))
	}
	// A lattice too wide for a dense cube: Fig. 9's 8 protected
	// attributes over 200 rows.
	wide := synth.AdultN(200, 6)
	if err := wide.Schema.SetProtected(synth.AdultScalabilityProtected...); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		d     *dataset.Dataset
		cov   Coverage
		dense bool
	}{
		{"two-attr", d, Coverage{Threshold: 50}, true},
		{"adult", synth.AdultN(3000, 5), Coverage{Threshold: 40}, true},
		{"wide", wide, Coverage{Threshold: 6}, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			sp, err := pattern.NewSpace(in.d.Schema)
			if err != nil {
				t.Fatal(err)
			}
			if got := sp.CubeFits(in.d.Len(), 2); got != in.dense {
				t.Fatalf("CubeFits = %v, want %v", got, in.dense)
			}
			mups, err := in.cov.MUPs(in.d)
			if err != nil {
				t.Fatal(err)
			}
			// Brute force: the level-1..2 patterns below the threshold
			// whose non-root parents all reach it, in level then key
			// order (Masks is level-ordered).
			uncovered := func(p pattern.Pattern) bool {
				return p.Level() > 0 && sp.CountPattern(in.d, p).N < in.cov.Threshold
			}
			var want []pattern.Pattern
			for _, m := range sp.Masks() {
				if l := bits.OnesCount32(m); l == 0 || l > 2 {
					continue
				}
				sp.EnumerateNode(m, func(p pattern.Pattern) {
					maximal := uncovered(p)
					sp.Parents(p, func(q pattern.Pattern) { maximal = maximal && !uncovered(q) })
					if maximal {
						want = append(want, p.Clone())
					}
				})
			}
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].Level() < want[j].Level() ||
					want[i].Level() == want[j].Level() && sp.Key(want[i]) < sp.Key(want[j])
			})
			if len(want) == 0 || !reflect.DeepEqual(mups, want) {
				t.Fatalf("MUPs %v, brute force %v", mups, want)
			}
		})
	}
	mups, _ := Coverage{Threshold: 50}.MUPs(d)
	sp, _ := pattern.NewSpace(d.Schema)
	if bf, _ := sp.Parse("race", "B", "sex", "F"); len(mups) == 0 || !mups[len(mups)-1].Equal(bf) {
		t.Fatalf("(race=B, sex=F) should be the deepest MUP; got %v", mups)
	}
}

func TestCoverageApplyRaisesCounts(t *testing.T) {
	d := dataset.New(testSchema())
	r := stats.NewRNG(4)
	for i := 0; i < 800; i++ {
		row := []int32{int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(3))}
		if row[0] == 1 && row[1] == 1 {
			row[1] = 0 // (B, F) completely absent
		}
		d.Append(row, int8(r.Intn(2)))
	}
	cov := Coverage{Threshold: 40, Seed: 2}
	out, err := cov.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() <= d.Len() {
		t.Fatal("coverage should add tuples")
	}
	sp, _ := pattern.NewSpace(out.Schema)
	p, _ := sp.Parse("race", "B", "sex", "F")
	if got := sp.CountPattern(out, p).N; got < 40 {
		t.Fatalf("(B,F) count after coverage = %d, want >= 40", got)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFairSMOTEBalancesCells(t *testing.T) {
	d := skewedData(t)
	out, err := FairSMOTE{Seed: 5}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() <= d.Len() {
		t.Fatal("Fair-SMOTE should add synthetic rows")
	}
	sp, _ := pattern.NewSpace(out.Schema)
	cells := leafCells(out, sp)
	for c := 0; c < cells.Len(); c++ {
		key, rows := cells.Region(c)
		pos, neg := splitByLabel(out, rows)
		if len(pos) == 0 || len(neg) == 0 {
			continue
		}
		if len(pos) != len(neg) {
			t.Fatalf("cell %s: %d pos vs %d neg after Fair-SMOTE",
				sp.String(sp.DecodeKey(key)), len(pos), len(neg))
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFairSMOTEDeterministic runs Apply repeatedly under one seed: the
// RNG draws cell by cell, so the cells must come in a fixed order.
func TestFairSMOTEDeterministic(t *testing.T) {
	d := synth.AdultN(3000, 7)
	first, _ := FairSMOTE{Seed: 1}.Apply(d)
	for run := 1; run < 5; run++ {
		if out, _ := (FairSMOTE{Seed: 1}).Apply(d); !reflect.DeepEqual(out, first) {
			t.Fatalf("run %d: Fair-SMOTE output differs from run 0 under the same seed", run)
		}
	}
}

func TestFairSMOTESyntheticRowsStayInCell(t *testing.T) {
	d := skewedData(t)
	out, err := FairSMOTE{Seed: 6}.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	// Protected attribute values of appended rows must equal those of a
	// real cell (crossover cannot mix protected values because both
	// parents share them).
	sp, _ := pattern.NewSpace(d.Schema)
	real := map[uint64]bool{}
	cells := leafCells(d, sp)
	for c := 0; c < cells.Len(); c++ {
		key, _ := cells.Region(c)
		real[key] = true
	}
	for i := d.Len(); i < out.Len(); i++ {
		var k uint64
		for s := 0; s < sp.Dim(); s++ {
			k |= uint64(out.Rows[i][sp.AttrIdx[s]]+1) << uint(5*s)
		}
		if !real[k] {
			t.Fatal("synthetic row landed in a nonexistent subgroup")
		}
	}
}

func TestGerryFairReducesViolation(t *testing.T) {
	d := skewedData(t)
	train, test := d.StratifiedSplit(0.7, 7)
	// Baseline violation of a plain LR.
	m, err := ml.Train(train, ml.NewLogisticRegression(ml.LogRegParams{Epochs: 120, LearningRate: 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	rep0, err := divexplorer.Explore(test, m.Predict(test), fairness.FPR, divexplorer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := TrainGerryFair(train, 10)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := divexplorer.Explore(test, gf.Predict(test), fairness.FPR, divexplorer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Violation() > rep0.Violation() {
		t.Fatalf("GerryFair violation %v > plain LR %v", rep1.Violation(), rep0.Violation())
	}
	// Training history must be non-empty and end no higher than it
	// started.
	if len(gf.History) == 0 {
		t.Fatal("empty history")
	}
	if last := gf.History[len(gf.History)-1]; last > gf.History[0] {
		t.Fatalf("training violation rose: %v -> %v", gf.History[0], last)
	}
}

func TestGerryFairEmptyTrain(t *testing.T) {
	if _, err := TrainGerryFair(dataset.New(testSchema()), 10); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestPreprocessorsOnEmptyAndUnprotected(t *testing.T) {
	empty := dataset.New(testSchema())
	for _, p := range []Preprocessor{Reweighting{}, FairBalance{}, Coverage{}, FairSMOTE{}} {
		if _, err := p.Apply(empty); err == nil {
			t.Fatalf("%s must reject an empty dataset", p.Name())
		}
	}
	noProt := dataset.New(&dataset.Schema{Target: "y",
		Attrs: []dataset.Attr{{Name: "a", Values: []string{"0"}}}})
	noProt.Append([]int32{0}, 1)
	for _, p := range []Preprocessor{Reweighting{}, FairBalance{}, Coverage{}, FairSMOTE{}} {
		if _, err := p.Apply(noProt); err == nil {
			t.Fatalf("%s must reject a schema without protected attributes", p.Name())
		}
	}
}

func TestNames(t *testing.T) {
	if (Reweighting{}).Name() != "Reweighting" ||
		(FairBalance{}).Name() != "FairBalance" ||
		(Coverage{}).Name() != "Coverage" ||
		(FairSMOTE{}).Name() != "Fair-SMOTE" {
		t.Fatal("names")
	}
}

func TestBaselinesOnSyntheticAdultSubset(t *testing.T) {
	// Smoke test on the real evaluation configuration: Adult restricted
	// to {race, gender}, as in Table III.
	d := synth.AdultN(3000, 1)
	s := d.Schema.Clone()
	if err := s.SetProtected("race", "gender"); err != nil {
		t.Fatal(err)
	}
	d = &dataset.Dataset{Schema: s, Rows: d.Rows, Labels: d.Labels}
	for _, p := range []Preprocessor{Reweighting{}, FairBalance{}, Coverage{Seed: 1}, FairSMOTE{Seed: 1}} {
		out, err := p.Apply(d)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}
