package ml

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// oracleTree is a reference CART: it reads x row by row, finds each
// value's bin by binary search for every (node, feature), and
// partitions by comparing the float value with the threshold. It is the
// tree as it was fitted before bin codes, and FuzzTreeFit checks the
// coded fit against it bit for bit.
type oracleTree struct {
	p          TreeParams
	x          [][]float64
	y, w       []float64
	vals       [][]float64
	rng        *rand.Rand
	importance []float64
}

// oracleFit fits a tree with params p (defaults applied) on x, y, w.
// vals lists each feature's values, ascending and distinct; it may list
// more than x holds, as a forest's bootstrap does.
func oracleFit(p TreeParams, x [][]float64, y, w []float64, vals [][]float64) (*treeNode, []float64) {
	if w == nil {
		w = ones(len(x))
	}
	o := &oracleTree{p: p, x: x, y: y, w: w, vals: vals, rng: stats.NewRNG(p.Seed),
		importance: make([]float64, len(x[0]))}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return o.build(idx, 0), o.importance
}

func (o *oracleTree) build(idx []int, depth int) *treeNode {
	wt, wp := nodeStats(o.y, o.w, idx)
	n := &treeNode{leaf: true}
	if wt > 0 {
		n.prob = wp / wt
	}
	if depth >= o.p.MaxDepth || wt < minSplitWeight || n.prob == 0 || n.prob == 1 {
		return n
	}
	feat, thresh, gain, ok := o.bestSplit(idx, wt, wp)
	if !ok {
		return n
	}
	o.importance[feat] += gain * wt
	var left, right []int
	for _, i := range idx {
		if o.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return n
	}
	n.leaf, n.feature, n.thresh = false, feat, thresh
	n.left = o.build(left, depth+1)
	n.right = o.build(right, depth+1)
	return n
}

func (o *oracleTree) bestSplit(idx []int, wt, wp float64) (int, float64, float64, bool) {
	nf := len(o.vals)
	feats := make([]int, nf)
	for f := range feats {
		feats[f] = f
	}
	if o.p.MaxFeatures > 0 && o.p.MaxFeatures < nf {
		feats = stats.SampleWithoutReplacement(o.rng, nf, o.p.MaxFeatures)
		sort.Ints(feats)
	}
	parent := gini(wt, wp)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	for _, f := range feats {
		vals := o.vals[f]
		if len(vals) < 2 {
			continue
		}
		cnt := make([]int, len(vals))
		hw := make([]float64, len(vals))
		hwp := make([]float64, len(vals))
		for _, i := range idx {
			b := sort.Search(len(vals), func(k int) bool { return vals[k] >= o.x[i][f] })
			cnt[b]++
			hw[b] += o.w[i]
			hwp[b] += o.w[i] * o.y[i]
		}
		var bins []int
		for b, c := range cnt {
			if c > 0 {
				bins = append(bins, b)
			}
		}
		var lw, lwp float64
		for k, b := range bins[:len(bins)-1] {
			lw += hw[b]
			lwp += hwp[b]
			rw, rwp := wt-lw, wp-lwp
			if lw < o.p.MinLeafWeight || rw < o.p.MinLeafWeight {
				continue
			}
			gain := parent - (lw*gini(lw, lwp)+rw*gini(rw, rwp))/wt
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[b] + vals[bins[k+1]]) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain, bestFeat >= 0
}

// oracleValues returns each feature's distinct values in x, ascending,
// with ±0 as one value.
func oracleValues(x [][]float64) [][]float64 {
	vals := make([][]float64, len(x[0]))
	for f := range vals {
		for _, row := range x {
			vals[f] = append(vals[f], row[f])
		}
		slices.Sort(vals[f])
		vals[f] = slices.Compact(vals[f])
	}
	return vals
}

// oracleForest fits the trees of a RandomForest with params p (defaults
// applied) the way the forest did before bin codes: each bootstrap is
// copied into its own rows and labels.
func oracleForest(p ForestParams, x [][]float64, y, w []float64) []*DecisionTree {
	rng := stats.NewRNG(p.Seed)
	n := len(x)
	maxFeat := int(math.Ceil(math.Sqrt(float64(len(x[0])))))
	var sampler *stats.WeightedSampler
	if w != nil {
		sampler = stats.NewWeightedSampler(w)
	}
	vals := oracleValues(x)
	trees := make([]*DecisionTree, p.Trees)
	for t := range trees {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := range bx {
			var j int
			if sampler == nil {
				j = rng.Intn(n)
			} else {
				j = sampler.Draw(rng)
			}
			bx[i], by[i] = x[j], y[j]
		}
		tree := NewDecisionTree(TreeParams{MaxDepth: p.MaxDepth, MaxFeatures: maxFeat, Seed: rng.Int63()})
		tree.root, tree.importance = oracleFit(tree.Params, bx, by, nil, vals)
		trees[t] = tree
	}
	return trees
}

// sameTree reports the first difference between two fitted trees: in
// shape, split feature, or the bits of a threshold, a leaf probability
// or an importance.
func sameTree(t *testing.T, name string, got, want *DecisionTree) {
	t.Helper()
	var walk func(path string, g, w *treeNode)
	walk = func(path string, g, w *treeNode) {
		switch {
		case g.leaf != w.leaf:
			t.Fatalf("%s node %q: leaf %v, want %v", name, path, g.leaf, w.leaf)
		case math.Float64bits(g.prob) != math.Float64bits(w.prob):
			t.Fatalf("%s node %q: prob %v, want %v", name, path, g.prob, w.prob)
		case g.leaf:
			return
		case g.feature != w.feature || math.Float64bits(g.thresh) != math.Float64bits(w.thresh):
			t.Fatalf("%s node %q: split x%d <= %v, want x%d <= %v", name, path, g.feature, g.thresh, w.feature, w.thresh)
		}
		walk(path+"L", g.left, w.left)
		walk(path+"R", g.right, w.right)
	}
	walk("", got.root, want.root)
	if len(got.importance) != len(want.importance) {
		t.Fatalf("%s: %d importances, want %d", name, len(got.importance), len(want.importance))
	}
	for f := range got.importance {
		if math.Float64bits(got.importance[f]) != math.Float64bits(want.importance[f]) {
			t.Fatalf("%s: importance[%d] %v, want %v", name, f, got.importance[f], want.importance[f])
		}
	}
}

type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// fuzzPool returns the values a feature of pool kind k draws from.
func fuzzPool(k int, r *rand.Rand) []float64 {
	tiny := 1e-300
	switch k % 6 {
	case 0: // signed zeros
		return []float64{math.Copysign(0, -1), 0, 1, -1}
	case 1: // adjacent doubles: their midpoint rounds onto the upper one
		return []float64{-tiny, 0, tiny, math.Nextafter(tiny, 1), 2}
	case 2: // one-hot or ordinal
		return []float64{0, 1, 2, 3, 4}[:2+r.Intn(4)]
	case 3: // more than 256 distinct values: two-byte codes
		pool := make([]float64, 300+r.Intn(200))
		for i := range pool {
			pool[i] = r.NormFloat64() * 10
		}
		return pool
	case 4: // midpoints that overflow to ±Inf
		return []float64{1.5e308, 1.7e308, -1.7e308, -1.5e308, 0}
	default: // constant
		return []float64{3.5}
	}
}

// FuzzTreeFit fits a decision tree and a 3-tree forest on random data
// and compares every tree, node by node, with oracleFit. Each of 1–6
// features draws from a small value set (signed zeros, adjacent
// doubles, ordinal codes, over 256 distinct values, overflowing
// midpoints, a constant); weights are absent, or random with zeros;
// depth varies, and so do the tree's leaf weight and per-split feature
// sampling (the forest's trees sample ⌈√features⌉ at leaf weight 1).
func FuzzTreeFit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 1, 44, 1, 5, 0, 2, 7})
	f.Add([]byte{2, 3, 1, 2, 200, 2, 8, 1, 1, 9, 1})
	f.Add([]byte{6, 0, 1, 2, 3, 4, 5, 1, 100, 1, 6, 2, 3, 42, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nf := 1 + in.next()%6
		kinds := make([]int, nf)
		for j := range kinds {
			kinds[j] = in.next()
		}
		n := 1 + (in.next()<<8|in.next())%700
		weighted := in.next()%2 == 1
		tp := TreeParams{
			MaxDepth:      1 + in.next()%8,
			MinLeafWeight: []float64{0, 0.5, 3}[in.next()%3],
			MaxFeatures:   in.next() % (nf + 1),
		}
		seed := int64(in.next())
		tp.Seed = seed
		r := stats.NewRNG(seed)
		pools := make([][]float64, nf)
		for j, k := range kinds {
			pools[j] = fuzzPool(k, r)
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		var w []float64
		if weighted {
			w = make([]float64, n)
		}
		for i := range x {
			x[i] = make([]float64, nf)
			for j, pool := range pools {
				x[i][j] = pool[r.Intn(len(pool))]
			}
			// The label leans on the first feature's sign, with noise.
			if (x[i][0] > 0) != (r.Intn(4) == 0) {
				y[i] = 1
			}
			if weighted && r.Intn(4) > 0 {
				w[i] = 0.25 + 2*r.Float64()
			}
		}

		dt := NewDecisionTree(tp)
		if err := dt.Fit(x, y, w); err != nil {
			t.Fatal(err)
		}
		want := NewDecisionTree(tp)
		want.root, want.importance = oracleFit(want.Params, x, y, w, oracleValues(x))
		sameTree(t, "tree", dt, want)

		rf := NewRandomForest(ForestParams{Trees: 3, MaxDepth: tp.MaxDepth, Seed: seed})
		if err := rf.FitCtx(context.Background(), x, y, w); err != nil {
			t.Fatal(err)
		}
		for k, tree := range oracleForest(rf.Params, x, y, w) {
			sameTree(t, "forest tree "+string(rune('0'+k)), rf.trees[k], tree)
		}
	})
}
