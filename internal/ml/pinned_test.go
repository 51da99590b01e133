package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// fitBitsWant pins the exact bits every learner produces on fixed
// inputs. The constants come from dense training loops (every column
// visited, one map histogram per node and feature), so the sparse passes
// must match them bit for bit; any change to the order of a float
// operation in training shows up as a different digest.
var fitBitsWant = map[string]string{
	"adult-unit/DT":          "18bc88568a436812b3ec8f9e1f54a694",
	"adult-unit/LG":          "e6950afd27cab7cc91d9107f5adbecaa",
	"adult-unit/NN":          "b9c334c7bc66af68ee15654d51e4ea2d",
	"adult-unit/RF":          "763266346f6792d88764eae839f82e3d",
	"adult-unit/CS-DT":       "269bc4a6a3e3a4b65d6a6689606514a9",
	"adult-weighted/DT":      "50708ef1d52f5e0f4bbf0ba1d1600dc5",
	"adult-weighted/LG":      "ed3c7c6b0898067aa1c3b34ae7e2f8f8",
	"adult-weighted/NN":      "27bbeb109f0f929024813a9830daf08f",
	"adult-weighted/RF":      "2fcab2b9afc905ad6ef2bb152f702189",
	"adult-weighted/CS-DT":   "03d803a588bdd55595108da6403da2c3",
	"xor/DT":                 "9897b9f396c264129dfc42dbe4bd2045",
	"xor/LG":                 "f8bf5fd7e509b3082c0788673156fe8e",
	"xor/NN":                 "9ff1488d8aa1361599eac61ff5bd666b",
	"xor/RF":                 "7cbb818296f36b44997364e427e14d37",
	"xor/CS-DT":              "9897b9f396c264129dfc42dbe4bd2045",
	"linear/DT":              "1ce1c8415b6f568bf3896df9f56f5901",
	"linear/LG":              "fb2a038175dc31aa647b29110c956dd4",
	"linear/NN":              "5356cd138569f5d680e251da77e0b56c",
	"linear/RF":              "a34cbab9ea7a4fe9ad1b33b62f8b30c4",
	"linear/CS-DT":           "96130dff855eb13a89fd78da087cf6cb",
	"edge/zero-weight-value": "58d995a9e424dd7666f211a0fc9b001b",
	"edge/signed-zeros":      "3e5630f32f6e78745e88742abaa9fbcc",
	"edge/constant-feature":  "627ee15a552c7f34b784fda02198748d",
	"edge/max-features":      "6c54376f912b883e1b7d789c523bfcd3",
}

// fitDigest fits clf and hashes the Float64bits of PredictProba and
// the hard Predict on every probe row; for a decision tree (bare or
// cost-sensitive) it also hashes FeatureImportance and Depth.
func fitDigest(t *testing.T, clf Classifier, x [][]float64, y, w []float64, probe [][]float64) string {
	t.Helper()
	if err := clf.Fit(x, y, w); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, row := range probe {
		put(math.Float64bits(clf.PredictProba(row)))
		put(uint64(clf.Predict(row)))
	}
	if cs, ok := clf.(CostSensitive); ok {
		clf = cs.Base
	}
	if dt, ok := clf.(*DecisionTree); ok {
		for _, v := range dt.FeatureImportance() {
			put(math.Float64bits(v))
		}
		put(uint64(dt.Depth()))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// pinnedAdult returns the encoded 70% stratified split of a 3000-row
// synthetic Adult and the concatenation of its train and test rows.
func pinnedAdult() (x [][]float64, y []float64, probe [][]float64) {
	train, test := synth.AdultN(3000, 7).StratifiedSplit(0.7, 7)
	enc := dataset.NewEncoding(train.Schema)
	x, y, _ = enc.Encode(train)
	xt, _, _ := enc.Encode(test)
	return x, y, append(append([][]float64{}, x...), xt...)
}

// edgeTree is the tree every DT edge case fits.
func edgeTree() *DecisionTree { return NewDecisionTree(TreeParams{MaxDepth: 6, Seed: 5}) }

func TestFitBitsPinned(t *testing.T) {
	type fitCase struct {
		name  string
		clf   Classifier
		x     [][]float64
		y, w  []float64
		probe [][]float64
	}
	var cases []fitCase
	models := func(data string, x [][]float64, y, w []float64, probe [][]float64) {
		for _, kind := range []ModelKind{DT, LG, NN, RF} {
			clf, err := NewClassifier(kind, 3)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, fitCase{data + "/" + string(kind), clf, x, y, w, probe})
		}
		cs := CostSensitive{Base: NewDecisionTree(TreeParams{MaxDepth: 10, MinLeafWeight: 5, Seed: 3}), FPCost: 1, FNCost: 3}
		cases = append(cases, fitCase{data + "/CS-DT", cs, x, y, w, probe})
	}

	ax, ay, aprobe := pinnedAdult()
	models("adult-unit", ax, ay, ones(len(ax)), aprobe)
	// Non-unit weights, a fifth of them zero.
	r := stats.NewRNG(11)
	aw := make([]float64, len(ax))
	for i := range aw {
		if r.Intn(5) > 0 {
			aw[i] = 0.25 + 2*r.Float64()
		}
	}
	models("adult-weighted", ax, ay, aw, aprobe)
	xx, xy := xorData(400, 21)
	models("xor", xx, xy, nil, xx)
	lx, ly := linearData(400, 22)
	models("linear", lx, ly, nil, lx)

	// Value 1 of feature 0 is carried only by zero-weight rows: it still
	// takes part in the split search, so the threshold lands at 0.5, not
	// at 1, and the rows at 1 go right.
	var zx [][]float64
	var zy, zw []float64
	for i := 0; i < 90; i++ {
		v := float64(i % 3)
		zx = append(zx, []float64{v, float64(i % 2)})
		label, wt := 0.0, 1.0
		if v == 2 || i%7 == 0 {
			label = 1
		}
		if v == 1 {
			wt, label = 0, float64(i%2)
		}
		zy, zw = append(zy, label), append(zw, wt)
	}
	cases = append(cases, fitCase{"edge/zero-weight-value", edgeTree(), zx, zy, zw, zx})

	// +0 and −0 in one feature are one value.
	negZero := math.Copysign(0, -1)
	var sx [][]float64
	var sy []float64
	for i := 0; i < 80; i++ {
		v := []float64{negZero, 0, 1, -1}[i%4]
		sx = append(sx, []float64{v, float64(i % 5)})
		if v == 0 && i%3 != 0 || v == 1 {
			sy = append(sy, 1)
		} else {
			sy = append(sy, 0)
		}
	}
	cases = append(cases, fitCase{"edge/signed-zeros", edgeTree(), sx, sy, nil, sx})

	// A constant column is never split on.
	var cx [][]float64
	var cy []float64
	for i := range lx {
		cx = append(cx, []float64{3.5, lx[i][0], lx[i][1]})
		cy = append(cy, ly[i])
	}
	cases = append(cases, fitCase{"edge/constant-feature", edgeTree(), cx, cy, nil, cx})

	// Per-split feature sampling draws from the tree's seeded RNG.
	cases = append(cases, fitCase{"edge/max-features",
		NewDecisionTree(TreeParams{MaxDepth: 8, MaxFeatures: 5, Seed: 9}), ax, ay, aw, aprobe})

	for _, c := range cases {
		got := fitDigest(t, c.clf, c.x, c.y, c.w, c.probe)
		want, ok := fitBitsWant[c.name]
		if !ok {
			t.Errorf("%s: no pinned digest", c.name)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
	if len(cases) != len(fitBitsWant) {
		t.Errorf("%d cases, %d pinned digests", len(cases), len(fitBitsWant))
	}
}
