package synth

import (
	"repro/internal/dataset"
	"repro/internal/stats"
)

// LawSchoolSize is the Law School dataset size reported in Table II
// (after the paper's uniform sampling to a balanced label).
const LawSchoolSize = 4590

// LawSchoolSchema returns the 12-attribute schema of the synthetic LSAC
// Law School dataset. Its Protected flags mark the paper's protected
// set (Table II, |X| = 4): age, gender, race and family_income.
func LawSchoolSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "pass_bar",
		Attrs: []dataset.Attr{
			{Name: "age", Values: []string{"<22", "22-25", ">25"}, Protected: true, Ordered: true},
			{Name: "gender", Values: []string{"Male", "Female"}, Protected: true},
			{Name: "race", Values: []string{"White", "Black", "Hispanic", "Asian"}, Protected: true},
			{Name: "family_income", Values: []string{"low", "mid-low", "mid-high", "high"}, Protected: true, Ordered: true},
			{Name: "lsat", Values: []string{"Q1", "Q2", "Q3", "Q4"}, Ordered: true},
			{Name: "ugpa", Values: []string{"Q1", "Q2", "Q3", "Q4"}, Ordered: true},
			{Name: "school_tier", Values: []string{"T4", "T3", "T2", "T1"}, Ordered: true},
			{Name: "fulltime", Values: []string{"Yes", "No"}},
			{Name: "region", Values: []string{"Northeast", "South", "Midwest", "West"}},
			{Name: "work_experience", Values: []string{"None", "Some", "Much"}, Ordered: true},
			{Name: "decile1", Values: []string{"Q1", "Q2", "Q3", "Q4"}, Ordered: true},
			{Name: "parents_education", Values: []string{"HS", "College", "Graduate"}, Ordered: true},
		},
	}
}

// LawSchool generates the synthetic Law School dataset: 4,590 rows with
// a balanced (1:1) pass/fail label as in the paper's preprocessing.
func LawSchool(seed int64) *dataset.Dataset { return LawSchoolN(LawSchoolSize, seed) }

// LawSchoolN generates a balanced Law School dataset with n rows
// (n/2 positive, n/2 negative). Academic signals (LSAT, UGPA, first-year
// decile, school tier) dominate the bar-passage label; representation
// bias concentrates failures among low-income Black students and older
// women, and successes among high-income White students.
func LawSchoolN(n int, seed int64) *dataset.Dataset {
	s := LawSchoolSchema()
	r := stats.NewRNG(seed)
	raw := dataset.New(s)

	model := &labelModel{
		intercept: 0.15,
		weights: map[int][]float64{
			4:  {-1.05, -0.30, 0.35, 1.00}, // lsat
			5:  {-0.80, -0.25, 0.30, 0.80}, // ugpa
			6:  {-0.45, -0.10, 0.20, 0.50}, // school tier
			7:  {0.15, -0.30},              // fulltime
			10: {-0.90, -0.25, 0.30, 0.85}, // decile1
			11: {-0.15, 0.05, 0.20},        // parents' education
		},
		biases: []regionBias{
			staticBias(s, -1.05, "race", "Black", "family_income", "low"),
			staticBias(s, -0.55, "gender", "Female", "age", ">25"),
			staticBias(s, -0.45, "family_income", "low", "age", "<22"),
			staticBias(s, 0.85, "race", "White", "family_income", "high"),
			staticBias(s, 0.40, "race", "Asian", "family_income", "mid-high"),
		},
	}

	// Generate an unbalanced pool large enough that both classes exceed
	// n/2, then balance and trim — mirroring the paper's uniform
	// sampling of the extremely label-imbalanced original.
	pool := 4 * n
	for i := 0; i < pool; i++ {
		row := make([]int32, 12)
		row[0] = weightedPick(r, []float64{0.28, 0.52, 0.20}) // age
		row[1] = weightedPick(r, []float64{0.56, 0.44})       // gender
		row[2] = weightedPick(r, []float64{0.76, 0.09, 0.07, 0.08})
		// Family income skews by race in the collected cohort.
		fw := []float64{0.18, 0.30, 0.32, 0.20}
		switch row[2] {
		case 1, 2: // Black, Hispanic
			fw = []float64{0.38, 0.34, 0.20, 0.08}
		case 3: // Asian
			fw = []float64{0.15, 0.25, 0.33, 0.27}
		}
		row[3] = weightedPick(r, fw)
		// LSAT correlates with family income (prep resources) and
		// parents' education.
		lw := []float64{0.25, 0.25, 0.25, 0.25}
		switch row[3] {
		case 0:
			lw = []float64{0.38, 0.30, 0.20, 0.12}
		case 3:
			lw = []float64{0.14, 0.22, 0.30, 0.34}
		}
		row[4] = weightedPick(r, lw)
		// UGPA loosely tracks LSAT.
		uw := []float64{0.25, 0.25, 0.25, 0.25}
		if row[4] >= 2 {
			uw = []float64{0.15, 0.22, 0.30, 0.33}
		} else {
			uw = []float64{0.33, 0.30, 0.22, 0.15}
		}
		row[5] = weightedPick(r, uw)
		// Better scores reach better tiers.
		tw := []float64{0.25, 0.25, 0.25, 0.25}
		if row[4] == 3 || row[5] == 3 {
			tw = []float64{0.10, 0.20, 0.30, 0.40}
		}
		row[6] = weightedPick(r, tw)
		row[7] = weightedPick(r, []float64{0.88, 0.12}) // fulltime
		row[8] = weightedPick(r, []float64{0.27, 0.30, 0.22, 0.21})
		aw := []float64{0.55, 0.33, 0.12}
		if row[0] == 2 {
			aw = []float64{0.15, 0.40, 0.45}
		}
		row[9] = weightedPick(r, aw)
		// First-year decile tracks entry credentials.
		dw := []float64{0.25, 0.25, 0.25, 0.25}
		switch {
		case row[4] == 3:
			dw = []float64{0.10, 0.20, 0.32, 0.38}
		case row[4] == 0:
			dw = []float64{0.38, 0.32, 0.20, 0.10}
		}
		row[10] = weightedPick(r, dw)
		pe := []float64{0.35, 0.45, 0.20}
		if row[3] == 3 {
			pe = []float64{0.15, 0.45, 0.40}
		}
		row[11] = weightedPick(r, pe)
		raw.Append(row, bernoulli(r, model.prob(row))) //lint:allow errdiscard row built to schema width by this generator
	}
	bal := balance(raw, r)
	if bal.Len() > n {
		half := n / 2
		var pos, neg []int
		for i, y := range bal.Labels {
			if y == 1 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		idx := append(append([]int(nil), pos[:half]...), neg[:n-half]...)
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		bal = bal.Subset(idx)
	}
	return bal
}
