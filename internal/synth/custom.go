package synth

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// This file exposes the generator machinery behind the three built-in
// datasets as a configurable public API, so downstream users (and the
// repository's own tests) can synthesize datasets with precisely
// controlled representation bias — the input condition the paper's
// method targets.

// CustomConfig describes a synthetic dataset: a schema, independent
// per-attribute marginals, a logistic label model, and injected region
// biases.
type CustomConfig struct {
	// Schema defines the attributes; protected flags carry through.
	Schema *dataset.Schema
	// Rows is the number of instances to generate.
	Rows int
	// Marginals gives the unnormalized sampling weights per attribute
	// (indexed like Schema.Attrs), one weight per value.
	Marginals [][]float64
	// Intercept is the label model's base logit.
	Intercept float64
	// Weights maps attribute index -> per-value logit contribution.
	Weights map[int][]float64
	// Biases lists region logit offsets: the injected Implicit Biased
	// Sets.
	Biases []RegionBias
}

// RegionBias is one injected bias: a conjunction of attribute=value
// names and the logit offset applied to matching rows.
type RegionBias struct {
	// Conditions alternates attribute name, value name.
	Conditions []string
	// Offset is added to the label logit of matching rows; positive
	// concentrates positives in the region.
	Offset float64
}

// Custom generates a dataset from the configuration. It validates the
// whole configuration before it samples a row, so a misconfigured
// generator fails with an error rather than a panic mid-sample.
func Custom(cfg CustomConfig, seed int64) (*dataset.Dataset, error) {
	if cfg.Schema == nil || len(cfg.Schema.Attrs) == 0 {
		return nil, fmt.Errorf("synth: missing schema")
	}
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("synth: non-positive row count %d", cfg.Rows)
	}
	na := len(cfg.Schema.Attrs)
	if len(cfg.Marginals) != na {
		return nil, fmt.Errorf("synth: %d marginals for %d attributes", len(cfg.Marginals), na)
	}
	for a := 0; a < na; a++ {
		if len(cfg.Marginals[a]) != cfg.Schema.Attrs[a].Cardinality() {
			return nil, fmt.Errorf("synth: attribute %s: %d weights for %d values",
				cfg.Schema.Attrs[a].Name, len(cfg.Marginals[a]), cfg.Schema.Attrs[a].Cardinality())
		}
	}
	for a, ws := range cfg.Weights {
		if a < 0 || a >= na {
			return nil, fmt.Errorf("synth: weight for unknown attribute %d", a)
		}
		if len(ws) != cfg.Schema.Attrs[a].Cardinality() {
			return nil, fmt.Errorf("synth: attribute %s: %d label weights for %d values",
				cfg.Schema.Attrs[a].Name, len(ws), cfg.Schema.Attrs[a].Cardinality())
		}
	}
	model := &labelModel{
		intercept: cfg.Intercept,
		weights:   cfg.Weights,
	}
	for _, b := range cfg.Biases {
		if len(b.Conditions)%2 != 0 || len(b.Conditions) == 0 {
			return nil, fmt.Errorf("synth: bias conditions must be name/value pairs")
		}
		for i := 0; i < len(b.Conditions); i += 2 {
			ai := cfg.Schema.AttrIndex(b.Conditions[i])
			if ai < 0 {
				return nil, fmt.Errorf("synth: bias on unknown attribute %q", b.Conditions[i])
			}
			if cfg.Schema.Attrs[ai].ValueIndex(b.Conditions[i+1]) < 0 {
				return nil, fmt.Errorf("synth: bias on unknown value %q of %s",
					b.Conditions[i+1], b.Conditions[i])
			}
		}
		rb, err := bias(cfg.Schema, b.Offset, b.Conditions...)
		if err != nil {
			return nil, err
		}
		model.biases = append(model.biases, rb)
	}

	r := stats.NewRNG(seed)
	d := dataset.New(cfg.Schema)
	for i := 0; i < cfg.Rows; i++ {
		row := make([]int32, na)
		for a := 0; a < na; a++ {
			row[a] = weightedPick(r, cfg.Marginals[a])
		}
		d.Append(row, bernoulli(r, model.prob(row))) //lint:allow errdiscard row built to schema width by this generator
	}
	return d, nil
}
