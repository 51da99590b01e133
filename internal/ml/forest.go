package ml

import (
	"context"
	"math"

	"repro/internal/stats"
)

// ForestParams configures a random forest.
type ForestParams struct {
	// Trees is the ensemble size; 0 means the default of 50.
	Trees int
	// MaxDepth per tree; 0 means the default of 10.
	MaxDepth int
	// MaxFeatures per split; 0 means sqrt(#features).
	MaxFeatures int
	// MinLeafWeight per tree leaf; 0 means 1.
	MinLeafWeight float64
	// Seed drives bootstrapping and feature sampling.
	Seed int64
}

func (p ForestParams) withDefaults() ForestParams {
	if p.Trees <= 0 {
		p.Trees = 50
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 10
	}
	return p
}

// RandomForest is a bagged ensemble of decision trees with per-split
// feature subsampling, averaging leaf probabilities.
type RandomForest struct {
	Params ForestParams
	trees  []*DecisionTree
}

// NewRandomForest returns an untrained forest.
func NewRandomForest(p ForestParams) *RandomForest {
	return &RandomForest{Params: p.withDefaults()}
}

// Fit trains the ensemble. Sample weights steer the bootstrap draw:
// instances are resampled proportionally to their weight, which is how
// the reweighting baselines influence tree ensembles.
func (f *RandomForest) Fit(x [][]float64, y []float64, w []float64) error {
	return f.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a per-tree cancellation check; on cancellation the
// trees grown so far are discarded and ctx.Err() is returned.
func (f *RandomForest) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	rng := stats.NewRNG(f.Params.Seed)
	n := len(x)
	maxFeat := f.Params.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Ceil(math.Sqrt(float64(len(x[0])))))
	}
	var sampler *stats.WeightedSampler
	if w != nil {
		sampler = stats.NewWeightedSampler(w)
	}
	// A bootstrap holds a subset of x's rows, so x's feature values
	// serve every tree; values a bootstrap lacks are empty bins.
	vals := distinctValues(x)
	f.trees = make([]*DecisionTree, f.Params.Trees)
	// A fitted tree keeps no reference to its training rows, so every
	// bootstrap reuses one pair of buffers.
	bx := make([][]float64, n)
	by := make([]float64, n)
	for t := range f.trees {
		if err := epochTick(ctx, t); err != nil {
			f.trees = nil // half an ensemble is a silently different model
			return err
		}
		// Weighted bootstrap.
		for i := 0; i < n; i++ {
			var j int
			if sampler == nil {
				j = rng.Intn(n)
			} else {
				j = sampler.Draw(rng)
			}
			bx[i] = x[j]
			by[i] = y[j]
		}
		tree := NewDecisionTree(TreeParams{
			MaxDepth:      f.Params.MaxDepth,
			MaxFeatures:   maxFeat,
			MinLeafWeight: f.Params.MinLeafWeight,
			Seed:          rng.Int63(),
		})
		if err := tree.fit(ctx, bx, by, nil, vals); err != nil {
			f.trees = nil
			return err
		}
		f.trees[t] = tree
	}
	return nil
}

// PredictProba averages the member trees' leaf probabilities.
func (f *RandomForest) PredictProba(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0.5
	}
	var s float64
	for _, t := range f.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(f.trees))
}

// Predict thresholds PredictProba at 0.5.
func (f *RandomForest) Predict(x []float64) int { return threshold(f.PredictProba(x)) }

// FeatureImportance averages the member trees' normalized Gini
// importances (nil before training).
func (f *RandomForest) FeatureImportance() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	var out []float64
	for _, t := range f.trees {
		imp := t.FeatureImportance()
		if out == nil {
			out = make([]float64, len(imp))
		}
		for i, v := range imp {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}
