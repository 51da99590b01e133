// Package fairness defines the statistical fairness vocabulary of the
// paper: the model statistics γ (FPR, FNR, and the discussion metrics
// of §VI), the divergence Δγ_g of a subgroup (Def. 1 context), the
// τ_d-fairness test, the Fairness Index aggregating all significant
// unfair subgroups (§V-A.d), and the GerryFair-style fairness violation
// used in the baseline comparison (§V-B4).
package fairness

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ml"
)

// Statistic is a model statistic γ computable from a confusion matrix.
type Statistic string

// ErrUnknownStatistic is returned by Statistic.Validate for a value
// outside the defined vocabulary.
var ErrUnknownStatistic = errors.New("fairness: unknown statistic")

const (
	// FPR is the false-positive rate Pr[h(x)=1 | y=0] (predictive
	// equality / equalized opportunity contexts).
	FPR Statistic = "FPR"
	// FNR is the false-negative rate Pr[h(x)=0 | y=1] (equalized odds
	// context).
	FNR Statistic = "FNR"
	// PositiveRate is Pr[h(x)=1], the statistic behind statistical
	// parity (§VI).
	PositiveRate Statistic = "PositiveRate"
	// Accuracy is Pr[h(x)=y] (§VI's accuracy-related measures).
	Accuracy Statistic = "Accuracy"
	// ErrorRate is Pr[h(x)≠y].
	ErrorRate Statistic = "ErrorRate"
)

// Validate reports whether s is one of the defined statistics,
// returning ErrUnknownStatistic otherwise. Entry points that accept a
// caller-supplied Statistic (divexplorer.Explore, the audit CLIs)
// validate up front so the NaN fallback of Of never reaches results.
func (s Statistic) Validate() error {
	switch s {
	case FPR, FNR, PositiveRate, Accuracy, ErrorRate:
		return nil
	}
	return fmt.Errorf("%w %q", ErrUnknownStatistic, s)
}

// Of evaluates the statistic on a confusion matrix. An unknown
// statistic evaluates to NaN; use Validate to reject it with an error
// instead.
func (s Statistic) Of(c ml.Confusion) float64 {
	switch s {
	case FPR:
		return c.FPR()
	case FNR:
		return c.FNR()
	case PositiveRate:
		return c.PositiveRate()
	case Accuracy:
		return c.Accuracy()
	case ErrorRate:
		return c.ErrorRate()
	}
	return math.NaN()
}

// BaseCount returns the size of the statistic's conditioning population
// within c — negatives for FPR, positives for FNR, everything for the
// outcome statistics. Significance tests and violation weights are
// computed over this population.
func (s Statistic) BaseCount(c ml.Confusion) (n, successes int) {
	switch s {
	case FPR:
		return int(c.FP + c.TN), int(c.FP)
	case FNR:
		return int(c.TP + c.FN), int(c.FN)
	case PositiveRate:
		return int(c.TP + c.FP + c.TN + c.FN), int(c.TP + c.FP)
	case Accuracy:
		return int(c.TP + c.FP + c.TN + c.FN), int(c.TP + c.TN)
	case ErrorRate:
		return int(c.TP + c.FP + c.TN + c.FN), int(c.FP + c.FN)
	}
	// Unknown statistics have an empty conditioning population; Validate
	// is the error-returning guard.
	return 0, 0
}

// Divergence is Δγ_g = |γ_g − γ_d|, the behavioral distinction between
// a subgroup and the entire dataset.
func Divergence(gammaG, gammaD float64) float64 { return math.Abs(gammaG - gammaD) }

// GroupOutcome is the per-subgroup evidence the aggregate metrics
// consume: the subgroup's support, its divergence, its significance
// under the t-test, and the size of the statistic's conditioning
// population inside the subgroup.
type GroupOutcome struct {
	Support     float64 // |g| / |D|
	Divergence  float64 // Δγ_g
	Significant bool    // Welch t-test at the auditor's α
	BaseN       int     // conditioning population size within g
}

// FairnessIndex is the paper's dataset-level unfairness measure: the
// sum of divergences over subgroups with support above minSupport
// (the paper uses 0.1) and a statistically significant divergence.
// Lower is fairer.
func FairnessIndex(groups []GroupOutcome, minSupport float64) float64 {
	var idx float64
	for _, g := range groups {
		if g.Support > minSupport && g.Significant {
			idx += g.Divergence
		}
	}
	return idx
}

// Violation is the GerryFair-style fairness violation (§V-B4): the
// maximum over subgroups of the divergence weighted by the violated
// group's share of the statistic's conditioning population. totalBase
// is that population's size in the whole dataset.
func Violation(groups []GroupOutcome, totalBase int) float64 {
	var worst float64
	if totalBase <= 0 {
		return 0
	}
	for _, g := range groups {
		v := g.Divergence * float64(g.BaseN) / float64(totalBase)
		if v > worst {
			worst = v
		}
	}
	return worst
}
