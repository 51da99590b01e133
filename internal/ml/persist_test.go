package ml

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func assertSamePredictions(t *testing.T, a, b Classifier, x [][]float64) {
	t.Helper()
	for i := range x {
		pa, pb := a.PredictProba(x[i]), b.PredictProba(x[i])
		if pa != pb {
			t.Fatalf("row %d: proba %v != %v after round trip", i, pa, pb)
		}
	}
}

func TestPersistDecisionTree(t *testing.T) {
	x, y := xorData(300, 1)
	tree := NewDecisionTree(TreeParams{MaxDepth: 5})
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, tree)
	assertSamePredictions(t, tree, loaded, x)
	// Params survive too.
	if loaded.(*DecisionTree).Params.MaxDepth != 5 {
		t.Fatal("params lost")
	}
}

func TestPersistUntrainedTree(t *testing.T) {
	tree := NewDecisionTree(TreeParams{})
	loaded := roundTrip(t, tree)
	if p := loaded.PredictProba([]float64{1}); p != 0.5 {
		t.Fatalf("untrained round trip proba = %v", p)
	}
}

func TestPersistRandomForest(t *testing.T) {
	x, y := xorData(300, 2)
	f := NewRandomForest(ForestParams{Trees: 5, MaxDepth: 4, Seed: 3})
	if err := f.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, f, roundTrip(t, f), x)
}

func TestPersistLogisticRegression(t *testing.T) {
	x, y := linearData(300, 3)
	l := NewLogisticRegression(LogRegParams{Epochs: 50})
	if err := l.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, l, roundTrip(t, l), x)
}

func TestPersistNeuralNetwork(t *testing.T) {
	x, y := xorData(300, 4)
	n := NewNeuralNetwork(NNParams{Hidden: 6, Epochs: 20, Seed: 5})
	if err := n.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, n, roundTrip(t, n), x)
}

func TestPersistFile(t *testing.T) {
	x, y := linearData(200, 6)
	l := NewLogisticRegression(LogRegParams{Epochs: 30})
	if err := l.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveFile(path, l); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, l, loaded, x)
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadEarlierFormat loads model files written by SaveFile before
// the LG params lost Seed, the NN params BatchSize and the tree params
// MinSplitWeight. encoding/json ignores the keys that no longer exist,
// so each file still loads and predicts exactly as a model fitted now
// with the same parameters on the same data.
func TestLoadEarlierFormat(t *testing.T) {
	for _, c := range []struct {
		name  string
		saved string
		fresh Classifier
		data  func() ([][]float64, []float64)
	}{
		{"tree",
			`{"kind":"decision_tree","params":{"MaxDepth":3,"MinLeafWeight":1,"MinSplitWeight":2,"MaxFeatures":0,"Seed":1},"state":[{"leaf":false,"prob":0.5,"feature":1,"thresh":0.5,"left":1,"right":4},{"leaf":false,"prob":0.6521739130434783,"thresh":0.5,"left":2,"right":3},{"leaf":true,"prob":0},{"leaf":true,"prob":1},{"leaf":false,"prob":0.29411764705882354,"thresh":0.5,"left":5,"right":6},{"leaf":true,"prob":1},{"leaf":true,"prob":0}]}`,
			NewDecisionTree(TreeParams{MaxDepth: 3, Seed: 1}),
			func() ([][]float64, []float64) { return xorData(40, 1) }},
		{"forest",
			`{"kind":"random_forest","params":{"Trees":2,"MaxDepth":2,"Seed":3},"state":{"trees":[{"params":{"MaxDepth":2,"MinLeafWeight":1,"MinSplitWeight":2,"MaxFeatures":2,"Seed":1575091352533060469},"nodes":[{"leaf":false,"prob":0.575,"feature":1,"thresh":0.5,"left":1,"right":4},{"leaf":false,"prob":0.5,"thresh":0.5,"left":2,"right":3},{"leaf":true,"prob":0},{"leaf":true,"prob":1},{"leaf":false,"prob":0.65,"thresh":0.5,"left":5,"right":6},{"leaf":true,"prob":1},{"leaf":true,"prob":0}]},{"params":{"MaxDepth":2,"MinLeafWeight":1,"MinSplitWeight":2,"MaxFeatures":2,"Seed":7197989152488707764},"nodes":[{"leaf":false,"prob":0.525,"feature":1,"thresh":0.5,"left":1,"right":4},{"leaf":false,"prob":0.47619047619047616,"thresh":0.5,"left":2,"right":3},{"leaf":true,"prob":0},{"leaf":true,"prob":1},{"leaf":false,"prob":0.5789473684210527,"thresh":0.5,"left":5,"right":6},{"leaf":true,"prob":1},{"leaf":true,"prob":0}]}]}}`,
			NewRandomForest(ForestParams{Trees: 2, MaxDepth: 2, Seed: 3}),
			func() ([][]float64, []float64) { return xorData(40, 2) }},
		{"logreg",
			`{"kind":"logistic_regression","params":{"LearningRate":0.5,"Epochs":20,"L2":0,"Seed":4},"state":{"weights":[0.40831090876420356,0.659780402469314],"bias":-0.36654963972981636}}`,
			NewLogisticRegression(LogRegParams{Epochs: 20}),
			func() ([][]float64, []float64) { return linearData(40, 3) }},
		{"nn",
			`{"kind":"neural_network","params":{"Hidden":3,"Epochs":5,"LearningRate":0.05,"BatchSize":32,"Seed":5},"state":{"w1":[[-0.7205428736258779,-1.826882836229634],[-1.0756348257088242,1.3960215622269954],[0.4896582616052536,-0.023694437987456893]],"b1":[0,0.022251979992470413,-0.00006430627093955072],"w2":[-0.03232877953457085,-0.181248559888642,-0.003988081675307317],"b2":-0.05462488096372118}}`,
			NewNeuralNetwork(NNParams{Hidden: 3, Epochs: 5, Seed: 5}),
			func() ([][]float64, []float64) { return xorData(40, 4) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.json")
			if err := os.WriteFile(path, []byte(c.saved+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			x, y := c.data()
			if err := c.fresh.Fit(x, y, nil); err != nil {
				t.Fatal(err)
			}
			assertSamePredictions(t, c.fresh, loaded, x)
		})
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := Load(bytes.NewBufferString(`{"kind":"martian","params":{},"state":{}}`)); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestCorruptTreeStateRejected(t *testing.T) {
	// A non-leaf node whose child index points backwards must be
	// rejected rather than building a cyclic tree.
	nodes := []treeNodeJSON{
		{Leaf: false, Feature: 0, Thresh: 0.5, Left: 0, Right: 0},
	}
	raw, _ := json.Marshal(nodes)
	tree := NewDecisionTree(TreeParams{})
	if err := tree.UnmarshalModel(raw); err == nil {
		t.Fatal("cyclic serialization must be rejected")
	}
}

func TestSaveUnsupportedClassifier(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, unsupportedClassifier{}); err == nil {
		t.Fatal("unsupported classifier must error")
	}
}

type unsupportedClassifier struct{}

func (unsupportedClassifier) Fit([][]float64, []float64, []float64) error { return nil }
func (unsupportedClassifier) PredictProba([]float64) float64              { return 0.5 }
func (unsupportedClassifier) Predict([]float64) int                       { return 0 }
