// Package ml implements the downstream classifiers the paper evaluates
// against — decision tree (DT), random forest (RF), logistic regression
// (LG), and a feed-forward neural network (NN) — plus the categorical
// Naïve Bayes ranker used by preferential sampling and data massaging,
// and confusion-matrix metrics. Everything is built from scratch on the
// standard library and supports per-instance sample weights, which the
// reweighting baselines require.
//
// Training touches only the data it needs. The encoded rows are mostly
// zeros (at most 13 of an Adult row's 37 columns are set), so logistic
// regression and the neural network index each row's non-zero columns
// once per fit (nonZeros) and run every epoch over those alone. The
// decision tree bins the training set once per fit, and a random forest
// once for all its trees: codes[f][i] is the position of x[i][f] among
// feature f's sorted distinct values. The codes are column-major in one
// allocation of the narrowest unsigned type that holds every feature's
// bin count (one byte up to 256 values, two up to 65,536, else four). A
// node histograms a feature's codes into reusable arrays, and partitions
// one row-index slice in place by testing codes[f][i] < cut, where cut
// is the number of the feature's values <= the threshold. A threshold is
// the midpoint of two values and can round onto the upper one, so the
// code test reproduces x <= thresh exactly. A forest's bootstrap is a
// vector of row ids into the shared codes and labels. The results are
// bit-identical to dense passes over every column: the skipped LG terms
// are w·0 = ±0, which leave a non-zero sum unchanged (and exp(±0)
// ignores the sign); NN's dense pass would skip the same zeros in the
// same order; the tree's stable partition keeps each node's rows, and
// so its sums, in the order of its row ids. TestFitBitsPinned pins the
// bits, and FuzzTreeFit checks trees node by node against a row-major,
// float-compare reference.
package ml

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Classifier is a binary probabilistic classifier over float feature
// vectors. Fit trains on a weighted sample; PredictProba returns
// P(y=1|x); Predict thresholds at 0.5.
type Classifier interface {
	Fit(x [][]float64, y []float64, w []float64) error
	PredictProba(x []float64) float64
	Predict(x []float64) int
}

// ContextFitter is implemented by classifiers whose training loop can
// be cancelled: FitCtx checks ctx cooperatively (per epoch for the
// iterative learners, per tree for the forest) and returns ctx.Err()
// once cancelled, leaving the model partially trained. All four
// built-in classifiers implement it.
type ContextFitter interface {
	FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error
}

// ModelKind names the four downstream classifiers of the evaluation.
type ModelKind string

const (
	DT ModelKind = "DT" // decision tree
	RF ModelKind = "RF" // random forest
	LG ModelKind = "LG" // logistic regression
	NN ModelKind = "NN" // neural network
)

// AllModels lists the classifiers in the paper's order.
var AllModels = []ModelKind{DT, RF, LG, NN}

// ErrUnknownModel is returned for a ModelKind outside AllModels.
var ErrUnknownModel = errors.New("ml: unknown model kind")

// NewClassifier constructs a classifier of the given kind with fixed
// hyperparameters: constants that no experiment tunes (the paper
// grid-searches its models; DESIGN.md §3.2 records the deviation). An
// unrecognized kind returns ErrUnknownModel.
func NewClassifier(kind ModelKind, seed int64) (Classifier, error) {
	switch kind {
	case DT:
		return NewDecisionTree(TreeParams{MaxDepth: 10, MinLeafWeight: 5, Seed: seed}), nil
	case RF:
		return NewRandomForest(ForestParams{Trees: 30, MaxDepth: 10, Seed: seed}), nil
	case LG:
		return NewLogisticRegression(LogRegParams{Epochs: 150, LearningRate: 0.8, L2: 1e-4}), nil
	case NN:
		return NewNeuralNetwork(NNParams{Hidden: 16, Epochs: 8, LearningRate: 0.1, Seed: seed}), nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownModel, kind)
}

// threshold converts a probability into a hard 0/1 prediction.
func threshold(p float64) int {
	if p >= 0.5 {
		return 1
	}
	return 0
}

// checkTrainingInput validates the (x, y, w) triple shared by all
// learners. Features must be finite and weights non-negative and
// finite: the split search orders feature values, and a NaN or +Inf
// weight would poison every sum it enters.
func checkTrainingInput(x [][]float64, y []float64, w []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(y) != len(x) {
		return fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return fmt.Errorf("ml: %d rows but %d weights", len(x), len(w))
	}
	width := len(x[0])
	for i := range x {
		if len(x[i]) != width {
			return fmt.Errorf("ml: ragged feature matrix at row %d", i)
		}
		for j, v := range x[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite feature %v at row %d, column %d", v, i, j)
			}
		}
	}
	for i := range y {
		if y[i] != 0 && y[i] != 1 {
			return fmt.Errorf("ml: label %v at row %d is not binary", y[i], i)
		}
		if w == nil {
			continue
		}
		if w[i] < 0 {
			return fmt.Errorf("ml: negative weight at row %d", i)
		}
		if math.IsNaN(w[i]) || math.IsInf(w[i], 1) {
			return fmt.Errorf("ml: non-finite weight %v at row %d", w[i], i)
		}
	}
	return nil
}

// nonZeros is the sparsity pattern of a dense feature matrix: row i's
// non-zero columns, ascending, are col[start[i]:start[i+1]]. The values
// stay in the matrix; the iterative learners read x[i][c] through this
// index. (int32 offsets suffice: overflowing them takes a matrix of
// more than 16 GiB.)
type nonZeros struct {
	start, col []int32
}

// newNonZeros indexes the non-zero entries of x, presizing col with a
// counting pass.
func newNonZeros(x [][]float64) nonZeros {
	nnz := 0
	for _, row := range x {
		for _, v := range row {
			if v != 0 {
				nnz++
			}
		}
	}
	nz := nonZeros{start: make([]int32, len(x)+1), col: make([]int32, 0, nnz)}
	for i, row := range x {
		nz.col = appendNonZeros(nz.col, row)
		nz.start[i+1] = int32(len(nz.col))
	}
	return nz
}

// appendNonZeros appends the ascending non-zero columns of row to dst.
func appendNonZeros(dst []int32, row []float64) []int32 {
	for j, v := range row {
		if v != 0 {
			dst = append(dst, int32(j))
		}
	}
	return dst
}

// row returns the ascending non-zero columns of row i.
func (nz nonZeros) row(i int) []int32 { return nz.col[nz.start[i]:nz.start[i+1]] }

// epochTick is the shared cooperative checkpoint of the context-aware
// training loops: it fires the ml.train.epoch fault-injection point
// with the epoch (or tree) index, counts the epoch in the context's
// metrics registry (ml.epochs — per-epoch for the iterative learners,
// per-tree for the forest), and then polls ctx.
func epochTick(ctx context.Context, epoch int) error {
	obs.MetricsFrom(ctx).Counter("ml.epochs").Inc()
	if faults.Active() {
		if err := faults.FireCtx(ctx, faults.TrainEpoch, epoch); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// ones returns a unit weight vector of length n.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Model binds a trained classifier to the feature encoding of a schema,
// so callers can predict directly on datasets.
type Model struct {
	Enc *dataset.Encoding
	Clf Classifier
}

// Train encodes d and fits clf on it, returning the bound model.
func Train(d *dataset.Dataset, clf Classifier) (*Model, error) {
	return TrainCtx(context.Background(), d, clf)
}

// TrainCtx is Train under a context. When clf implements ContextFitter
// the training loop itself checks ctx (per epoch or per tree) and
// aborts promptly with ctx.Err(); otherwise ctx is only consulted
// before training starts.
func TrainCtx(ctx context.Context, d *dataset.Dataset, clf Classifier) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "ml.train")
	if sp != nil {
		sp.SetStr("clf", fmt.Sprintf("%T", clf))
		sp.SetInt("rows", int64(d.Len()))
	}
	defer sp.End()
	enc := dataset.NewEncoding(d.Schema)
	x, y, w := enc.Encode(d)
	var err error
	if cf, ok := clf.(ContextFitter); ok {
		err = cf.FitCtx(ctx, x, y, w)
	} else {
		err = clf.Fit(x, y, w)
	}
	if err != nil {
		return nil, err
	}
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelInfo) {
		lg.Scope("ml").Info("trained", "clf", fmt.Sprintf("%T", clf), "rows", d.Len())
	}
	return &Model{Enc: enc, Clf: clf}, nil
}

// TrainKind constructs the default classifier of the given kind (see
// NewClassifier) and trains it on d — the common train-by-name path of
// the experiments and CLIs. An unknown kind returns ErrUnknownModel.
func TrainKind(d *dataset.Dataset, kind ModelKind, seed int64) (*Model, error) {
	return TrainKindCtx(context.Background(), d, kind, seed)
}

// TrainKindCtx is TrainKind under a context; see TrainCtx.
func TrainKindCtx(ctx context.Context, d *dataset.Dataset, kind ModelKind, seed int64) (*Model, error) {
	clf, err := NewClassifier(kind, seed)
	if err != nil {
		return nil, err
	}
	return TrainCtx(ctx, d, clf)
}

// Predict returns hard predictions for every instance of d.
func (m *Model) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	buf := make([]float64, m.Enc.Width())
	for i := range d.Rows {
		m.Enc.EncodeRow(d.Rows[i], buf)
		out[i] = m.Clf.Predict(buf)
	}
	return out
}

// PredictProba returns P(y=1|x) for every instance of d.
func (m *Model) PredictProba(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	buf := make([]float64, m.Enc.Width())
	for i := range d.Rows {
		m.Enc.EncodeRow(d.Rows[i], buf)
		out[i] = m.Clf.PredictProba(buf)
	}
	return out
}
