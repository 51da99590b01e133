package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// baselinesPinnedWant pins every pre-processing baseline's output on
// fixed inputs: the SHA-256 prefix of the rows, labels and weights,
// then the row count. A change to how a subgroup's rows are found or
// ordered shows up as a different digest.
var baselinesPinnedWant = map[string]string{
	"compas600/0-Fair-SMOTE":   "1e755334d1a1603413c02242ba41a641 711",
	"compas600/1-Reweighting":  "d2e93a1f2f71e121c3b33738f420ab01 600",
	"compas600/2-FairBalance":  "12be04452a2c5234b18bc32e31779914 600",
	"compas600/3-Coverage":     "fd77be9e6526e7af33e8b4a0f0da9996 649",
	"compas600/4-Coverage":     "803fc6ef34c3fede1d63ddac249d8ffb 1086",
	"compas6172/0-Fair-SMOTE":  "cc20c1da5811b5065acb7d4e89d8be02 8010",
	"compas6172/1-Reweighting": "1ebc18b328c911e39f8b713afc7e69d6 6172",
	"compas6172/2-FairBalance": "fe4b92dafb98d70d543015372e89a337 6172",
	"compas6172/3-Coverage":    "be6009776c7d4f1e754d1f8f58d7ec26 6172",
	"compas6172/4-Coverage":    "0f78957c829354e741ab806bbfca19d3 6333",
}

// datasetDigest hashes a dataset's rows, labels and weights.
func datasetDigest(d *dataset.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(d.Len()))
	for i, row := range d.Rows {
		for _, v := range row {
			put(uint64(v))
		}
		put(uint64(d.Labels[i]))
	}
	put(uint64(len(d.Weights)))
	for _, w := range d.Weights {
		put(math.Float64bits(w))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func TestBaselinesPinned(t *testing.T) {
	inputs := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"compas6172", synth.CompasN(6172, 1)},
		{"compas600", synth.CompasN(600, 1)},
	}
	methods := []Preprocessor{
		FairSMOTE{Seed: 1}, Reweighting{}, FairBalance{}, Coverage{Seed: 1}, Coverage{Threshold: 100, MaxLevel: 3, Seed: 1},
	}
	got := map[string]string{}
	for _, in := range inputs {
		for i, m := range methods {
			name := fmt.Sprintf("%s/%d-%s", in.name, i, m.Name())
			out, err := m.Apply(in.d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = fmt.Sprintf("%s %d", datasetDigest(out), out.Len())
		}
	}
	for name, g := range got {
		if w := baselinesPinnedWant[name]; g != w {
			t.Errorf("%s: got %q, want %q", name, g, w)
		}
	}
	if len(baselinesPinnedWant) != len(got) {
		t.Errorf("%d pinned cases, ran %d", len(baselinesPinnedWant), len(got))
	}
}
