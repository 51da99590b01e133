package stats

import "math/rand"

// NewRNG returns a deterministic pseudo-random source for the given
// seed. Every stochastic component in this repository (data generation,
// sampling remedies, SGD shuffling, bootstrap draws) threads one of
// these through explicitly so that experiments regenerate bit-identically.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Shuffle permutes idx in place using r.
func Shuffle(r *rand.Rand, idx []int) {
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly
// from [0, n). If k >= n it returns the identity permutation of all n
// indices. The result order is random.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k >= n {
		Shuffle(r, idx)
		return idx
	}
	// Partial Fisher–Yates: only the first k positions need settling.
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// WeightedSampler draws indices proportionally to fixed non-negative
// weights in O(log n) per draw via binary search on cumulative sums,
// for drawing many times from one distribution (e.g. weighted
// bootstrap).
type WeightedSampler struct {
	cum []float64
}

// NewWeightedSampler precomputes the cumulative distribution. A zero
// total weight degenerates to uniform.
func NewWeightedSampler(weights []float64) *WeightedSampler {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total == 0 {
		for i := range cum {
			cum[i] = float64(i + 1)
		}
	}
	return &WeightedSampler{cum: cum}
}

// Draw returns one index.
func (s *WeightedSampler) Draw(r *rand.Rand) int {
	total := s.cum[len(s.cum)-1]
	u := r.Float64() * total
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
