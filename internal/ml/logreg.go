package ml

import (
	"context"
	"math"
)

// LogRegParams configures logistic regression.
type LogRegParams struct {
	// LearningRate for gradient descent; 0 means 0.5.
	LearningRate float64
	// Epochs of full-batch descent; 0 means 200.
	Epochs int
	// L2 regularization strength; 0 disables it. The value is not
	// checked: a negative one is applied as given and pushes the
	// weights away from zero.
	L2 float64
}

func (p LogRegParams) withDefaults() LogRegParams {
	if p.LearningRate <= 0 {
		p.LearningRate = 0.5
	}
	if p.Epochs <= 0 {
		p.Epochs = 200
	}
	return p
}

// LogisticRegression is an L2-regularized linear classifier trained by
// weighted full-batch gradient descent on the cross-entropy loss.
type LogisticRegression struct {
	Params LogRegParams
	// Weights holds the learned coefficients; Bias the intercept.
	Weights []float64
	Bias    float64
}

// NewLogisticRegression returns an untrained model.
func NewLogisticRegression(p LogRegParams) *LogisticRegression {
	return &LogisticRegression{Params: p.withDefaults()}
}

// Fit trains by full-batch gradient descent. Sample weights scale each
// instance's gradient contribution.
func (l *LogisticRegression) Fit(x [][]float64, y []float64, w []float64) error {
	return l.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a per-epoch cancellation check; on cancellation
// the partially descended weights remain and ctx.Err() is returned.
// Each epoch visits only a row's non-zero columns.
func (l *LogisticRegression) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	if w == nil {
		w = ones(len(x))
	}
	nz := newNonZeros(x)
	nf := len(x[0])
	l.Weights = make([]float64, nf)
	l.Bias = 0
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	if totalW == 0 {
		totalW = 1
	}
	grad := make([]float64, nf)
	lr := l.Params.LearningRate
	for epoch := 0; epoch < l.Params.Epochs; epoch++ {
		if err := epochTick(ctx, epoch); err != nil {
			return err
		}
		for i := range grad {
			grad[i] = 0
		}
		var gradB float64
		for i, xi := range x {
			cols := nz.row(i)
			e := w[i] * (l.prob(xi, cols) - y[i])
			for _, c := range cols {
				grad[c] += e * xi[c]
			}
			gradB += e
		}
		for j := range l.Weights {
			g := grad[j]/totalW + l.Params.L2*l.Weights[j]
			l.Weights[j] -= lr * g
		}
		l.Bias -= lr * gradB / totalW
	}
	return nil
}

// PredictProba applies the logistic link to the linear score.
func (l *LogisticRegression) PredictProba(x []float64) float64 {
	var buf [64]int32
	return l.prob(x, appendNonZeros(buf[:0], x[:len(l.Weights)]))
}

// prob is the logistic link of the linear score summed over cols, the
// ascending non-zero columns of x. Training and prediction both score
// through it. It has the bits of a dense sum over every column: a
// skipped column adds w_j·0 = ±0, which leaves a non-zero partial sum
// unchanged and a zero one zero, and exp(±0) is the same for either
// sign.
func (l *LogisticRegression) prob(x []float64, cols []int32) float64 {
	z := l.Bias
	for _, c := range cols {
		z += l.Weights[c] * x[c]
	}
	return 1 / (1 + math.Exp(-z))
}

// Predict thresholds PredictProba at 0.5.
func (l *LogisticRegression) Predict(x []float64) int { return threshold(l.PredictProba(x)) }
