// Package divexplorer re-implements the subgroup auditing tool the
// paper uses for evaluation (Pastor et al., "Looking for trouble:
// Analyzing classifier behavior via pattern divergence", SIGMOD 2021):
// it mines every intersectional subgroup of the protected attributes
// with sufficient support, computes the subgroup's model statistic and
// its divergence from the overall value, tests significance with
// Welch's t-test, and ranks the unfair subgroups — the machinery behind
// Fig. 3 and the Fairness Index of §V-A.d.
package divexplorer

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Subgroup is one audited subgroup with its divergence evidence.
type Subgroup struct {
	Pattern pattern.Pattern
	// N is the subgroup size; Support is N over the dataset size.
	N       int
	Support float64
	// Conf is the subgroup's confusion matrix.
	Conf ml.Confusion
	// Value is γ_g, Divergence is Δγ_g = |γ_g − γ_d|.
	Value      float64
	Divergence float64
	// T and P report Welch's t-test of the subgroup's indicator sample
	// against its complement; Significant applies the auditor's α.
	T, P        float64
	Significant bool
}

// Report is the full audit of one prediction vector under one
// statistic.
type Report struct {
	Space   *pattern.Space
	Stat    fairness.Statistic
	Alpha   float64
	Overall float64 // γ_d
	// OverallConf is the dataset-level confusion matrix.
	OverallConf ml.Confusion
	// Subgroups holds every mined subgroup, ranked by divergence
	// descending (ties by pattern key for determinism).
	Subgroups []Subgroup
}

// Options configures the audit.
type Options struct {
	// MinSupport drops subgroups below this support fraction; 0 means
	// 0.01.
	MinSupport float64
	// Alpha is the significance level of the t-test; 0 means 0.05.
	Alpha float64
	// MaxLevel caps the pattern level (0 = no cap): level 1 audits
	// single attributes only, matching independent group fairness.
	MaxLevel int
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.01
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	return o
}

// confClasses returns each row's confusion class 2·y + ŷ, so a
// lattice counted with them holds every region's confusion matrix.
func confClasses(d *dataset.Dataset, preds []int) []int8 {
	classes := make([]int8, d.Len())
	for i, y := range d.Labels {
		classes[i] = 2 * y
		if preds[i] == 1 {
			classes[i]++
		}
	}
	return classes
}

// confusion converts a region's class counts, class 2·y + ŷ, to its
// confusion matrix.
func confusion(c []int32) ml.Confusion {
	return ml.Confusion{TN: float64(c[0]), FP: float64(c[1]), FN: float64(c[2]), TP: float64(c[3])}
}

// Explore audits predictions preds over the (test) dataset d, mining
// every subgroup of the protected-attribute lattice with support at
// least opts.MinSupport.
func Explore(d *dataset.Dataset, preds []int, stat fairness.Statistic, opts Options) (*Report, error) {
	return ExploreCtx(context.Background(), d, preds, stat, opts)
}

// exploreCheckStride bounds how many regions the ranking pass walks
// between ctx polls.
const exploreCheckStride = 1024

// ExploreCtx is Explore under a context: it checks ctx before counting
// and every exploreCheckStride regions of the ranking pass, returning
// ctx.Err() and no report once cancelled.
func ExploreCtx(ctx context.Context, d *dataset.Dataset, preds []int, stat fairness.Statistic, opts Options) (*Report, error) {
	if err := stat.Validate(); err != nil {
		return nil, err
	}
	if len(preds) != d.Len() {
		return nil, fmt.Errorf("divexplorer: %d predictions for %d instances", len(preds), d.Len())
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("divexplorer: empty dataset")
	}
	sp, err := pattern.NewSpace(d.Schema)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ctx, span := obs.StartSpan(ctx, "divexplorer.explore")
	span.SetStr("stat", string(stat))
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lat := sp.CountAll(d, confClasses(d, preds), 4)

	overall := confusion(lat.Counts(pattern.NewPattern(sp.Dim())))
	rep := &Report{
		Space:       sp,
		Stat:        stat,
		Alpha:       opts.Alpha,
		Overall:     stat.Of(overall),
		OverallConf: overall,
	}
	totalBaseN, totalBaseK := stat.BaseCount(overall)

	minN := int(opts.MinSupport * float64(d.Len()))
	itemsets := 0
	lat.Walk(func(p pattern.Pattern, c []int32) bool {
		itemsets++
		if itemsets%exploreCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		level := p.Level()
		if level == 0 || (opts.MaxLevel > 0 && level > opts.MaxLevel) {
			return true
		}
		n := int(c[0] + c[1] + c[2] + c[3])
		if n < minN {
			return true
		}
		conf := confusion(c)
		value := stat.Of(conf)
		baseN, baseK := stat.BaseCount(conf)
		sg := Subgroup{
			Pattern:    p.Clone(),
			N:          n,
			Support:    float64(n) / float64(d.Len()),
			Conf:       conf,
			Value:      value,
			Divergence: fairness.Divergence(value, rep.Overall),
		}
		// Welch t-test: subgroup indicator sample vs its complement.
		restN, restK := totalBaseN-baseN, totalBaseK-baseK
		if res, err := stats.WelchT(
			stats.BernoulliSummary(baseN, baseK),
			stats.BernoulliSummary(restN, restK),
		); err == nil {
			sg.T, sg.P = res.T, res.P
			sg.Significant = res.P < opts.Alpha
		}
		rep.Subgroups = append(rep.Subgroups, sg)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rep.Subgroups, func(i, j int) bool {
		a, b := rep.Subgroups[i], rep.Subgroups[j]
		if a.Divergence != b.Divergence {
			return a.Divergence > b.Divergence
		}
		return sp.Key(a.Pattern) < sp.Key(b.Pattern)
	})
	if m := obs.MetricsFrom(ctx); m != nil {
		// itemsets counts the non-empty regions the walk visited, root
		// included (every candidate subgroup, before the support
		// filter); subgroups is what survived it.
		m.Counter("divexplorer.itemsets").Add(int64(itemsets))
		m.Counter("divexplorer.subgroups").Add(int64(len(rep.Subgroups)))
	}
	span.SetInt("itemsets", int64(itemsets))
	span.SetInt("subgroups", int64(len(rep.Subgroups)))
	return rep, nil
}

// Unfair returns the subgroups violating Def. 1 at threshold τ_d,
// preserving the divergence ranking.
func (r *Report) Unfair(tauD float64) []Subgroup {
	var out []Subgroup
	for _, g := range r.Subgroups {
		if g.Divergence > tauD {
			out = append(out, g)
		}
	}
	return out
}

// Outcomes converts the mined subgroups into the aggregate-metric
// input of package fairness.
func (r *Report) Outcomes() []fairness.GroupOutcome {
	out := make([]fairness.GroupOutcome, len(r.Subgroups))
	for i, g := range r.Subgroups {
		baseN, _ := r.Stat.BaseCount(g.Conf)
		out[i] = fairness.GroupOutcome{
			Support:     g.Support,
			Divergence:  g.Divergence,
			Significant: g.Significant,
			BaseN:       baseN,
		}
	}
	return out
}

// FairnessIndex computes the paper's Fairness Index from this audit:
// the sum of divergences over subgroups with support above minSupport
// (use 0.1 as in §V-A.d) and a significant t-test.
func (r *Report) FairnessIndex(minSupport float64) float64 {
	return fairness.FairnessIndex(r.Outcomes(), minSupport)
}

// Violation computes the GerryFair-style fairness violation from this
// audit (maximum divergence weighted by violated-population share).
func (r *Report) Violation() float64 {
	totalBase, _ := r.Stat.BaseCount(r.OverallConf)
	return fairness.Violation(r.Outcomes(), totalBase)
}
