package ml

import (
	"fmt"

	"repro/internal/dataset"
)

// NaiveBayes is a categorical Naïve Bayes classifier operating directly
// on dataset rows (attribute codes) with Laplace smoothing. The remedy
// algorithms use it as the ranker that scores borderline instances for
// preferential sampling and data massaging (§IV-A), exactly as
// Kamiran & Calders do. Smoothing adds one to every count.
type NaiveBayes struct {
	schema *dataset.Schema
	prior  [2]float64
	// cond[c][a][v] = P(attr a = v | class c), smoothed.
	cond [2][][]float64
}

// FitDataset trains on the categorical dataset with its sample weights.
func (nb *NaiveBayes) FitDataset(d *dataset.Dataset) error {
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	const alpha = 1 // Laplace smoothing
	nb.schema = d.Schema
	na := len(d.Schema.Attrs)
	var classW [2]float64
	var counts [2][][]float64
	for c := 0; c < 2; c++ {
		counts[c] = make([][]float64, na)
		for a := 0; a < na; a++ {
			counts[c][a] = make([]float64, d.Schema.Attrs[a].Cardinality())
		}
	}
	for i, row := range d.Rows {
		c := int(d.Labels[i])
		w := d.Weight(i)
		classW[c] += w
		for a, v := range row {
			counts[c][a][v] += w
		}
	}
	total := classW[0] + classW[1]
	for c := 0; c < 2; c++ {
		nb.prior[c] = (classW[c] + alpha) / (total + 2*alpha)
		nb.cond[c] = make([][]float64, na)
		for a := 0; a < na; a++ {
			card := float64(len(counts[c][a]))
			nb.cond[c][a] = make([]float64, len(counts[c][a]))
			for v := range counts[c][a] {
				nb.cond[c][a][v] = (counts[c][a][v] + alpha) / (classW[c] + alpha*card)
			}
		}
	}
	return nil
}

// ProbaRow returns P(y=1 | row) for a categorical row.
func (nb *NaiveBayes) ProbaRow(row []int32) float64 {
	if nb.schema == nil {
		return 0.5
	}
	// Work in probability space with per-step renormalization; the
	// attribute counts are small enough that underflow is not a risk
	// after normalizing each step.
	p1, p0 := nb.prior[1], nb.prior[0]
	for a, v := range row {
		p1 *= nb.cond[1][a][v]
		p0 *= nb.cond[0][a][v]
		s := p0 + p1
		if s > 0 {
			p0 /= s
			p1 /= s
		}
	}
	if p0+p1 == 0 {
		return 0.5
	}
	return p1 / (p0 + p1)
}

// ProbaDataset scores every instance of d.
func (nb *NaiveBayes) ProbaDataset(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range d.Rows {
		out[i] = nb.ProbaRow(d.Rows[i])
	}
	return out
}
