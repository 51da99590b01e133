package baselines

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/fairness"
	"repro/internal/ml"
)

// GerryFairModel is the trained mixture: the uniform average over the
// learner's best responses, as in fictitious play.
type GerryFairModel struct {
	Models []*ml.Model
	// History records the training fairness violation after each round,
	// for convergence inspection.
	History []float64
}

// GerryFair's auditor constants: each round bumps the weight of the
// most violated subgroup's negatives by 1+gerryEta, audits subgroups
// of support at least gerryMinSupport, and the loop stops once the
// training violation falls below gerryTolerance.
const (
	gerryEta        = 0.5
	gerryMinSupport = 0.01
	gerryTolerance  = 0.001
)

// TrainGerryFair runs iterations rounds of the learner/auditor loop of
// Kearns et al. [21] on the training set: fictitious play between a
// Learner (cost-sensitive classification) and an Auditor
// (most-violated subgroup detection) for false-positive subgroup
// fairness.
//
// Substitution note (DESIGN.md §3): the released GerryFair audits over
// linear threshold functions via a regression oracle; this
// implementation keeps the same learner/auditor loop but the auditor
// searches the complete space of conjunctive protected-attribute
// subgroups — the hypothesis class every other method in the paper's
// comparison uses. The two behaviours that matter for Table III are
// preserved: the fairness violation shrinks over rounds, and training
// cost is far above any pre-processing method.
func TrainGerryFair(train *dataset.Dataset, iterations int) (*GerryFairModel, error) {
	if train.Len() == 0 {
		return nil, fmt.Errorf("baselines: empty training set")
	}
	cur := train.Clone()
	cur.EnsureWeights()
	model := &GerryFairModel{}
	// Running sum of the mixture's probabilities on the training set,
	// so each round adds only the newest model's forward pass instead
	// of re-evaluating the whole ensemble.
	probSum := make([]float64, train.Len())
	preds := make([]int, train.Len())
	for it := 0; it < iterations; it++ {
		// Learner best-responds to the current costs (weights) with the
		// linear learner, as in the original's cost-sensitive oracle.
		clf := ml.NewLogisticRegression(ml.LogRegParams{Epochs: 80, LearningRate: 0.8, L2: 1e-4})
		m, err := ml.Train(cur, clf)
		if err != nil {
			return nil, err
		}
		model.Models = append(model.Models, m)
		for i, pr := range m.PredictProba(train) {
			probSum[i] += pr
		}
		for i := range preds {
			if probSum[i]/float64(len(model.Models)) >= 0.5 {
				preds[i] = 1
			} else {
				preds[i] = 0
			}
		}

		// Auditor: find the most FP-violated subgroup under the current
		// mixture's training predictions.
		rep, err := divexplorer.Explore(train, preds, fairness.FPR, divexplorer.Options{MinSupport: gerryMinSupport})
		if err != nil {
			return nil, err
		}
		worst, violation := mostViolated(rep)
		model.History = append(model.History, violation)
		if violation < gerryTolerance {
			break
		}
		// Penalize the violated subgroup's negatives: they become more
		// expensive to misclassify.
		for i := range train.Rows {
			if train.Labels[i] == 0 && rep.Space.MatchRow(worst.Pattern, train.Rows[i]) {
				cur.Weights[i] *= 1 + gerryEta
			}
		}
	}
	return model, nil
}

// mostViolated returns the subgroup with the highest FPR violation
// (divergence weighted by its share of the negatives) whose FPR exceeds
// the overall — the direction GerryFair's FP auditor penalizes.
func mostViolated(rep *divexplorer.Report) (divexplorer.Subgroup, float64) {
	totalBase, _ := rep.Stat.BaseCount(rep.OverallConf)
	var worst divexplorer.Subgroup
	var worstV float64
	for _, g := range rep.Subgroups {
		if g.Value <= rep.Overall {
			continue
		}
		baseN, _ := rep.Stat.BaseCount(g.Conf)
		v := g.Divergence * float64(baseN) / float64(totalBase)
		if v > worstV {
			worstV = v
			worst = g
		}
	}
	return worst, worstV
}

// Predict returns the mixture's hard predictions: the average of the
// member models' probabilities thresholded at 0.5.
func (g *GerryFairModel) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	if len(g.Models) == 0 {
		return out
	}
	sum := make([]float64, d.Len())
	for _, m := range g.Models {
		for i, p := range m.PredictProba(d) {
			sum[i] += p
		}
	}
	for i := range out {
		if sum[i]/float64(len(g.Models)) >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
