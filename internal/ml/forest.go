package ml

import (
	"context"
	"math"

	"repro/internal/stats"
)

// ForestParams configures a random forest. Every tree samples
// ⌈√features⌉ candidate features per split and keeps the tree's
// default minimum leaf weight of 1.
type ForestParams struct {
	// Trees is the ensemble size; 0 means the default of 50.
	Trees int
	// MaxDepth per tree; 0 means the default of 10.
	MaxDepth int
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
	maxFeat := int(math.Ceil(math.Sqrt(float64(len(x[0])))))
	var sampler *stats.WeightedSampler
	if w != nil {
		sampler = stats.NewWeightedSampler(w)
	}
	// Every tree grows over x's bin codes: a bootstrap is a vector of
	// row ids, and values it lacks are empty bins. A fitted tree keeps
	// no reference to its rows, so every bootstrap reuses one vector.
	g := binRows(x, y, ones(n))
	f.trees = make([]*DecisionTree, f.Params.Trees)
	boot := make([]int, n)
	for t := range f.trees {
		if err := epochTick(ctx, t); err != nil {
			f.trees = nil // half an ensemble is a silently different model
			return err
		}
		// Weighted bootstrap.
		for i := range boot {
			if sampler == nil {
				boot[i] = rng.Intn(n)
			} else {
				boot[i] = sampler.Draw(rng)
			}
		}
		tree := NewDecisionTree(TreeParams{
			MaxDepth:    f.Params.MaxDepth,
			MaxFeatures: maxFeat,
			Seed:        rng.Int63(),
		})
		if err := tree.fit(ctx, g, boot); err != nil {
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
