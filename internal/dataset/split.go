package dataset

import "repro/internal/stats"

// StratifiedSplit randomly partitions the dataset into a training set
// with the given fraction of instances and a test set with the
// remainder, as in the paper's 70/30 protocol. It preserves the label
// base rate in both partitions, which keeps small datasets' test
// metrics stable across seeds. The split is deterministic for a given
// seed.
func (d *Dataset) StratifiedSplit(trainFrac float64, seed int64) (train, test *Dataset) {
	r := stats.NewRNG(seed)
	var pos, neg []int
	for i, y := range d.Labels {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	stats.Shuffle(r, pos)
	stats.Shuffle(r, neg)
	cutP := int(float64(len(pos)) * trainFrac)
	cutN := int(float64(len(neg)) * trainFrac)
	trainIdx := append(append([]int(nil), pos[:cutP]...), neg[:cutN]...)
	testIdx := append(append([]int(nil), pos[cutP:]...), neg[cutN:]...)
	stats.Shuffle(r, trainIdx)
	stats.Shuffle(r, testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// SampleFraction returns a uniform random sample of about frac of the
// dataset, used by the scalability experiments to vary data size.
func (d *Dataset) SampleFraction(frac float64, seed int64) *Dataset {
	if frac >= 1 {
		return d.Subset(allIndices(d.Len()))
	}
	r := stats.NewRNG(seed)
	k := int(float64(d.Len()) * frac)
	return d.Subset(stats.SampleWithoutReplacement(r, d.Len(), k))
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
