package ml

import (
	"context"
	"math/rand" //lint:allow determinism consumes injected *rand.Rand; construction only via stats.NewRNG
	"slices"
	"sort"

	"repro/internal/stats"
)

// TreeParams configures a CART decision tree.
type TreeParams struct {
	// MaxDepth limits the tree depth; 0 means the default of 12.
	MaxDepth int
	// MinLeafWeight is the minimum total sample weight in a leaf
	// (default 1).
	MinLeafWeight float64
	// MinSplitWeight is the minimum total sample weight required to
	// attempt a split (default 2).
	MinSplitWeight float64
	// MaxFeatures, when positive, samples that many candidate features
	// per split (used by the random forest). 0 considers all features.
	MaxFeatures int
	// Seed drives the feature subsampling.
	Seed int64
}

func (p TreeParams) withDefaults() TreeParams {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLeafWeight <= 0 {
		p.MinLeafWeight = 1
	}
	if p.MinSplitWeight <= 0 {
		p.MinSplitWeight = 2
	}
	return p
}

// DecisionTree is a weighted binary CART classifier using Gini
// impurity and threshold splits. Categorical inputs arrive one-hot or
// ordinal encoded, so threshold splits express both equality and
// ordering tests.
type DecisionTree struct {
	Params TreeParams
	root   *treeNode
	// importance accumulates the total weighted Gini decrease per
	// feature during training.
	importance []float64
}

type treeNode struct {
	leaf    bool
	prob    float64 // P(y=1) at this node
	feature int
	thresh  float64
	left    *treeNode // feature value <= thresh
	right   *treeNode
}

// NewDecisionTree returns an untrained tree with the given parameters.
func NewDecisionTree(p TreeParams) *DecisionTree {
	return &DecisionTree{Params: p.withDefaults()}
}

// Fit trains the tree.
func (t *DecisionTree) Fit(x [][]float64, y []float64, w []float64) error {
	return t.FitCtx(context.Background(), x, y, w)
}

// FitCtx is Fit with a cancellation check at every split node; on
// cancellation the partially built tree is discarded and ctx.Err() is
// returned.
func (t *DecisionTree) FitCtx(ctx context.Context, x [][]float64, y []float64, w []float64) error {
	if err := checkTrainingInput(x, y, w); err != nil {
		return err
	}
	return t.fit(ctx, x, y, w, distinctValues(x))
}

// distinctValues returns each feature's distinct values in x,
// ascending, with ±0 as one value.
func distinctValues(x [][]float64) [][]float64 {
	vals := make([][]float64, len(x[0]))
	col := make([]float64, len(x))
	for f := range vals {
		for i, row := range x {
			col[i] = row[f]
		}
		slices.Sort(col)
		vals[f] = slices.Clone(slices.Compact(col))
	}
	return vals
}

// fit grows the tree on validated input. vals[f] lists, ascending and
// distinct, every value feature f takes in x; it may list more, which
// is how the forest shares its training set's values with every
// bootstrap tree.
func (t *DecisionTree) fit(ctx context.Context, x [][]float64, y []float64, w []float64, vals [][]float64) error {
	if w == nil {
		w = ones(len(x))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.importance = make([]float64, len(x[0]))
	t.root = newTreeFit(t, x, y, w, vals).build(ctx, idx, 0)
	if err := ctx.Err(); err != nil {
		t.root = nil // a truncated tree is a silently different model
		return err
	}
	return nil
}

// FeatureImportance returns the per-feature share of the total Gini
// impurity decrease accumulated over the tree's splits (normalized to
// sum to 1; nil before training, all-zero for a stump).
func (t *DecisionTree) FeatureImportance() []float64 {
	if t.importance == nil {
		return nil
	}
	out := make([]float64, len(t.importance))
	var total float64
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

func nodeStats(y, w []float64, idx []int) (wt, wp float64) {
	for _, i := range idx {
		wt += w[i]
		wp += w[i] * y[i]
	}
	return wt, wp
}

func gini(wt, wp float64) float64 {
	if wt <= 0 {
		return 0
	}
	p := wp / wt
	return 2 * p * (1 - p)
}

// treeFit is one fit's state: the training data, each feature's sorted
// distinct values, and the scratch that every node reuses.
type treeFit struct {
	t    *DecisionTree
	x    [][]float64
	y, w []float64
	rng  *rand.Rand
	// vals[f] holds feature f's distinct values, ascending (see fit). A
	// histogram bin is a position in vals[f].
	vals [][]float64
	// cnt, hw and hwp are one feature's histogram at one node: rows,
	// weight and positive weight per bin. Only the bins listed in
	// touched are non-zero, and bestSplit clears them after use.
	cnt     []int32
	hw, hwp []float64
	touched []int32
	// allFeats is 0..width-1; scratch holds a partition's right side.
	allFeats []int
	scratch  []int
}

func newTreeFit(t *DecisionTree, x [][]float64, y, w []float64, vals [][]float64) *treeFit {
	s := &treeFit{
		t: t, x: x, y: y, w: w, vals: vals,
		rng:      stats.NewRNG(t.Params.Seed),
		allFeats: make([]int, len(vals)),
		scratch:  make([]int, 0, len(x)),
	}
	bins := 0
	for f, v := range vals {
		s.allFeats[f] = f
		bins = max(bins, len(v))
	}
	s.cnt = make([]int32, bins)
	s.hw = make([]float64, bins)
	s.hwp = make([]float64, bins)
	return s
}

// bin returns the position of v in the ascending slice vals, which
// contains it.
func bin(vals []float64, v float64) int {
	lo, hi := 0, len(vals)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// build grows the subtree over the rows idx, which it reorders in place.
func (s *treeFit) build(ctx context.Context, idx []int, depth int) *treeNode {
	t := s.t
	wt, wp := nodeStats(s.y, s.w, idx)
	n := &treeNode{leaf: true}
	if wt > 0 {
		n.prob = wp / wt
	}
	if depth >= t.Params.MaxDepth || wt < t.Params.MinSplitWeight ||
		n.prob == 0 || n.prob == 1 || ctx.Err() != nil {
		return n
	}
	feat, thresh, gain, ok := s.bestSplit(idx, wt, wp)
	if !ok {
		return n
	}
	// Weighted impurity decrease credits the chosen feature.
	t.importance[feat] += gain * wt
	nl := s.partition(idx, feat, thresh)
	if nl == 0 || nl == len(idx) {
		return n
	}
	n.leaf = false
	n.feature = feat
	n.thresh = thresh
	n.left = s.build(ctx, idx[:nl], depth+1)
	n.right = s.build(ctx, idx[nl:], depth+1)
	return n
}

// partition stably reorders idx so the rows with x[i][feat] <= thresh
// come first and returns how many there are. Stability keeps each
// child's rows in training-set order, which fixes the summation order
// of nodeStats and of the histograms.
func (s *treeFit) partition(idx []int, feat int, thresh float64) int {
	nl := 0
	right := s.scratch[:0]
	for _, i := range idx {
		if s.x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	return nl
}

// bestSplit finds the (feature, threshold) pair with the largest Gini
// decrease. Because the encoded features take few distinct values, it
// histograms per value rather than sorting instances: each row adds to
// the bin of its value, and the split candidates lie between adjacent
// bins that hold rows. A bin holds rows when its count is positive; a
// value carried only by zero-weight rows still bounds a candidate.
func (s *treeFit) bestSplit(idx []int, wt, wp float64) (int, float64, float64, bool) {
	p := s.t.Params
	nf := len(s.vals)
	feats := s.allFeats
	if p.MaxFeatures > 0 && p.MaxFeatures < nf {
		feats = stats.SampleWithoutReplacement(s.rng, nf, p.MaxFeatures)
		sort.Ints(feats)
	}
	parent := gini(wt, wp)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	x, y, w := s.x, s.y, s.w
	cnt, hw, hwp := s.cnt, s.hw, s.hwp
	for _, f := range feats {
		vals := s.vals[f]
		if len(vals) < 2 {
			continue
		}
		touched := s.touched[:0]
		for _, i := range idx {
			b := bin(vals, x[i][f])
			if cnt[b] == 0 {
				touched = append(touched, int32(b))
			}
			cnt[b]++
			hw[b] += w[i]
			hwp[b] += w[i] * y[i]
		}
		slices.Sort(touched)
		var lw, lwp float64
		for k, b := range touched[:len(touched)-1] {
			lw += hw[b]
			lwp += hwp[b]
			rw, rwp := wt-lw, wp-lwp
			if lw < p.MinLeafWeight || rw < p.MinLeafWeight {
				continue
			}
			gain := parent - (lw*gini(lw, lwp)+rw*gini(rw, rwp))/wt
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[b] + vals[touched[k+1]]) / 2
			}
		}
		for _, b := range touched {
			cnt[b], hw[b], hwp[b] = 0, 0, 0
		}
		s.touched = touched
	}
	return bestFeat, bestThresh, bestGain, bestFeat >= 0
}

// PredictProba returns the training-set positive fraction of the leaf x
// falls into.
func (t *DecisionTree) PredictProba(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0.5
	}
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

// Predict thresholds PredictProba at 0.5.
func (t *DecisionTree) Predict(x []float64) int { return threshold(t.PredictProba(x)) }

// Depth returns the depth of the trained tree (0 for a stump/untrained).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
