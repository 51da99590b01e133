package ml

// Confusion is a binary confusion matrix over (possibly weighted)
// instances.
type Confusion struct {
	TP, FP, TN, FN float64
}

// Observe adds one instance with the given truth, prediction, and
// weight.
func (c *Confusion) Observe(y, pred int, w float64) {
	switch {
	case y == 1 && pred == 1:
		c.TP += w
	case y == 0 && pred == 1:
		c.FP += w
	case y == 0 && pred == 0:
		c.TN += w
	default:
		c.FN += w
	}
}

// NewConfusion tallies predictions against labels with unit weights.
func NewConfusion(y []int8, pred []int) Confusion {
	var c Confusion
	for i := range y {
		c.Observe(int(y[i]), pred[i], 1)
	}
	return c
}

// Accuracy is (TP+TN)/total, 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return (c.TP + c.TN) / total
}

// FPR is the false-positive rate Pr[h(x)=1 | y=0]; 0 when there are no
// negatives.
func (c Confusion) FPR() float64 {
	neg := c.FP + c.TN
	if neg == 0 {
		return 0
	}
	return c.FP / neg
}

// FNR is the false-negative rate Pr[h(x)=0 | y=1]; 0 when there are no
// positives.
func (c Confusion) FNR() float64 {
	pos := c.TP + c.FN
	if pos == 0 {
		return 0
	}
	return c.FN / pos
}

// PositiveRate is Pr[h(x)=1], the statistic behind statistical parity.
func (c Confusion) PositiveRate() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return (c.TP + c.FP) / total
}

// ErrorRate is Pr[h(x) != y].
func (c Confusion) ErrorRate() float64 { return 1 - c.Accuracy() }
