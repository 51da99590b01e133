package ml

import (
	"context"
	"math"

	"repro/internal/stats"
)

// NNParams configures the feed-forward neural network. Training
// applies no weight decay.
type NNParams struct {
	// Hidden is the hidden layer width; 0 means 16.
	Hidden int
	// Epochs over the training set; 0 means 20.
	Epochs int
	// LearningRate for SGD; 0 means 0.05.
	LearningRate float64
	// Seed drives weight initialization and shuffling.
	Seed int64
}

func (p NNParams) withDefaults() NNParams {
	if p.Hidden <= 0 {
		p.Hidden = 16
	}
	if p.Epochs <= 0 {
		p.Epochs = 20
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.05
	}
	return p
}

// nnBatchSize is the mini-batch size of the network's SGD.
const nnBatchSize = 32

// NeuralNetwork is a one-hidden-layer perceptron (ReLU hidden units,
// sigmoid output) trained with weighted mini-batch SGD on cross-entropy
// loss — the MLP classifier of the paper's evaluation.
type NeuralNetwork struct {
	Params NNParams
	// w1[h][j] connects input j to hidden h; b1[h] is its bias.
	w1 [][]float64
	b1 []float64
	// w2[h] connects hidden h to the output; b2 is the output bias.
	w2 []float64
	b2 float64
}

// NewNeuralNetwork returns an untrained network.
func NewNeuralNetwork(p NNParams) *NeuralNetwork {
	return &NeuralNetwork{Params: p.withDefaults()}
}

// Fit trains the network.
func (n *NeuralNetwork) Fit(x [][]float64, y []float64, w []float64) error {
	return n.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a per-epoch cancellation check; on cancellation
// the partially trained weights remain and ctx.Err() is returned.
func (n *NeuralNetwork) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	if w == nil {
		w = ones(len(x))
	}
	rng := stats.NewRNG(n.Params.Seed)
	nf := len(x[0])
	h := n.Params.Hidden
	// He initialization for the ReLU layer.
	scale := math.Sqrt(2 / float64(nf))
	n.w1 = make([][]float64, h)
	n.b1 = make([]float64, h)
	n.w2 = make([]float64, h)
	for i := 0; i < h; i++ {
		n.w1[i] = make([]float64, nf)
		for j := range n.w1[i] {
			n.w1[i][j] = rng.NormFloat64() * scale
		}
		n.w2[i] = rng.NormFloat64() * math.Sqrt(1/float64(h))
	}
	n.b2 = 0

	// The forward and backward passes visit a row's non-zero columns in
	// ascending order, the same terms in the same order as skipping the
	// zeros of the dense row.
	nz := newNonZeros(x)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	hidden := make([]float64, h)
	lr := n.Params.LearningRate
	for epoch := 0; epoch < n.Params.Epochs; epoch++ {
		if err := epochTick(ctx, epoch); err != nil {
			return err
		}
		stats.Shuffle(rng, idx)
		for start := 0; start < len(idx); start += nnBatchSize {
			end := start + nnBatchSize
			if end > len(idx) {
				end = len(idx)
			}
			// Accumulate the batch gradient via per-sample backprop.
			var batchW float64
			for _, i := range idx[start:end] {
				batchW += w[i]
			}
			if batchW == 0 {
				continue
			}
			step := lr / batchW
			for _, i := range idx[start:end] {
				xi, cols := x[i], nz.row(i)
				// Forward.
				for hh := 0; hh < h; hh++ {
					w1 := n.w1[hh]
					z := n.b1[hh]
					for _, c := range cols {
						z += w1[c] * xi[c]
					}
					if z < 0 {
						z = 0
					}
					hidden[hh] = z
				}
				z2 := n.b2
				for hh := 0; hh < h; hh++ {
					z2 += n.w2[hh] * hidden[hh]
				}
				p := 1 / (1 + math.Exp(-z2))
				// Backward: dL/dz2 = p - y (cross-entropy + sigmoid).
				d2 := w[i] * (p - y[i])
				for hh := 0; hh < h; hh++ {
					gw2 := d2 * hidden[hh]
					d1 := d2 * n.w2[hh]
					n.w2[hh] -= step * gw2
					if hidden[hh] > 0 { // ReLU gate
						w1 := n.w1[hh]
						for _, c := range cols {
							w1[c] -= step * (d1 * xi[c])
						}
						n.b1[hh] -= step * d1
					}
				}
				n.b2 -= step * d2
			}
		}
	}
	return nil
}

// PredictProba runs the forward pass.
func (n *NeuralNetwork) PredictProba(x []float64) float64 {
	if n.w1 == nil {
		return 0.5
	}
	z2 := n.b2
	for hh := range n.w1 {
		z := n.b1[hh]
		for j, v := range x {
			if v != 0 {
				z += n.w1[hh][j] * v
			}
		}
		if z > 0 {
			z2 += n.w2[hh] * z
		}
	}
	return 1 / (1 + math.Exp(-z2))
}

// Predict thresholds PredictProba at 0.5.
func (n *NeuralNetwork) Predict(x []float64) int { return threshold(n.PredictProba(x)) }
