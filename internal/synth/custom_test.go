package synth

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

func customSchema() *dataset.Schema {
	return &dataset.Schema{
		Target: "y",
		Attrs: []dataset.Attr{
			{Name: "g", Values: []string{"a", "b"}, Protected: true},
			{Name: "h", Values: []string{"x", "y", "z"}, Protected: true},
		},
	}
}

func TestCustomGeneratesConfiguredBias(t *testing.T) {
	cfg := CustomConfig{
		Schema:    customSchema(),
		Rows:      8000,
		Marginals: [][]float64{{1, 1}, {1, 1, 1}},
		Intercept: 0,
		Biases: []RegionBias{
			{Conditions: []string{"g", "a", "h", "x"}, Offset: 2.5},
			{Conditions: []string{"g", "b"}, Offset: -1.0},
		},
	}
	d, err := Custom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 8000 {
		t.Fatalf("rows = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// (g=a, h=x) must be strongly positive; (g=b) below 50%.
	var n1, p1, n2, p2 int
	for i, row := range d.Rows {
		if row[0] == 0 && row[1] == 0 {
			n1++
			if d.Labels[i] == 1 {
				p1++
			}
		}
		if row[0] == 1 {
			n2++
			if d.Labels[i] == 1 {
				p2++
			}
		}
	}
	if r := float64(p1) / float64(n1); r < 0.85 {
		t.Fatalf("biased region positive rate %v, want high", r)
	}
	if r := float64(p2) / float64(n2); r > 0.40 {
		t.Fatalf("depressed region positive rate %v, want low", r)
	}
}

func TestCustomLabelWeights(t *testing.T) {
	cfg := CustomConfig{
		Schema:    customSchema(),
		Rows:      6000,
		Marginals: [][]float64{{1, 1}, {1, 1, 1}},
		Intercept: -1,
		Weights:   map[int][]float64{0: {2, -2}},
	}
	d, err := Custom(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var na, pa, nb, pb int
	for i, row := range d.Rows {
		if row[0] == 0 {
			na++
			pa += int(d.Labels[i])
		} else {
			nb++
			pb += int(d.Labels[i])
		}
	}
	// sigmoid(1) ≈ 0.73 vs sigmoid(-3) ≈ 0.047.
	if r := float64(pa) / float64(na); math.Abs(r-0.73) > 0.05 {
		t.Fatalf("g=a rate %v, want ~0.73", r)
	}
	if r := float64(pb) / float64(nb); r > 0.10 {
		t.Fatalf("g=b rate %v, want ~0.05", r)
	}
}

func TestCustomValidation(t *testing.T) {
	base := func() CustomConfig {
		return CustomConfig{
			Schema:    customSchema(),
			Rows:      10,
			Marginals: [][]float64{{1, 1}, {1, 1, 1}},
		}
	}
	cases := []struct {
		name   string
		break_ func(*CustomConfig)
	}{
		{"nil schema", func(c *CustomConfig) { c.Schema = nil }},
		{"zero rows", func(c *CustomConfig) { c.Rows = 0 }},
		{"marginal count", func(c *CustomConfig) { c.Marginals = c.Marginals[:1] }},
		{"marginal width", func(c *CustomConfig) { c.Marginals[1] = []float64{1} }},
		{"weights width", func(c *CustomConfig) { c.Weights = map[int][]float64{0: {1}} }},
		{"weights index", func(c *CustomConfig) { c.Weights = map[int][]float64{9: {1, 1}} }},
		{"bias attr", func(c *CustomConfig) {
			c.Biases = []RegionBias{{Conditions: []string{"zzz", "a"}, Offset: 1}}
		}},
		{"bias value", func(c *CustomConfig) {
			c.Biases = []RegionBias{{Conditions: []string{"g", "zzz"}, Offset: 1}}
		}},
		{"bias odd pairs", func(c *CustomConfig) {
			c.Biases = []RegionBias{{Conditions: []string{"g"}, Offset: 1}}
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.break_(&cfg)
		if _, err := Custom(cfg, 1); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestCustomDeterminism(t *testing.T) {
	cfg := CustomConfig{
		Schema:    customSchema(),
		Rows:      500,
		Marginals: [][]float64{{1, 3}, {1, 1, 2}},
	}
	a, err := Custom(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Custom(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Labels[i] != b.Labels[i] || a.Rows[i][0] != b.Rows[i][0] || a.Rows[i][1] != b.Rows[i][1] {
			t.Fatal("same seed must reproduce")
		}
	}
}
