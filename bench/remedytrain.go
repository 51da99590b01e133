package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/divexplorer"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/ml"
	"repro/internal/remedy"
	"repro/internal/synth"
)

// remedyTechniques and remedyModels span one remedy-train cycle. RF is
// left out of the loop (one fit costs several ops); the traced run
// times it once as a probe.
var (
	remedyTechniques = []remedy.Technique{remedy.PreferentialSampling, remedy.Undersampling, remedy.Oversampling, remedy.Massaging}
	remedyModels     = []ml.ModelKind{ml.DT, ml.LG, ml.NN}
)

type remedySplit struct{ train, test *dataset.Dataset }

// runRemedyTrain is a closed loop of one caller cycling through every
// (technique, model) cell of Fig. 4 on Adult (|X| = 6, τ_c = 0.5): each
// op remedies the 70% split, trains, predicts the 30% split and scores
// it. The loop runs whole cycles, so every run measures the same mix.
func runRemedyTrain(ctx context.Context, rc *runCtx) (*report, error) {
	rep := newReport()
	sp, setupS, err := setupMedian(ctx, rc.sc, func(context.Context) (remedySplit, error) {
		train, test := synth.AdultN(rc.sc.adultRows, rc.seed).StratifiedSplit(0.7, rc.seed)
		return remedySplit{train, test}, nil
	}, func(remedySplit) {})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, "s")

	var untraced, traced []float64
	layer := remedyLayers{applyMS: map[remedy.Technique][]float64{}, applyMB: map[remedy.Technique][]float64{},
		reports: map[remedy.Technique]*remedy.Report{}, fitMS: map[ml.ModelKind][]float64{}}
	cells := map[string]map[string]bool{} // cell -> distinct digests seen
	var lastPreds []int
	mem := markMem()
	start := time.Now()
	cycles := 0
	for cycle := 0; ; cycle++ {
		cycleStart := time.Now()
		for ti, tech := range remedyTechniques {
			for mi, model := range remedyModels {
				cell := len(remedyModels)*ti + mi
				isTraced := rc.tr != nil && (cycle+cell)%2 == 1
				op := cycle*len(remedyTechniques)*len(remedyModels) + cell
				rep.attempted++
				t0 := time.Now()
				out, preds, err := layer.op(ctx, rc.tr, isTraced, op, sp, tech, model, rc.seed)
				ms := msSince(t0)
				if err != nil {
					rep.failed++
					rep.printf("op %s/%s failed: %v", tech, model, err)
					continue
				}
				if isTraced {
					traced = append(traced, ms)
				} else {
					untraced = append(untraced, ms)
				}
				key := fmt.Sprintf("remedy-train/%s/%s", tech, model)
				if cells[key] == nil {
					cells[key] = map[string]bool{}
				}
				dd, pd := datasetDigest(out), predsDigest(preds)
				cells[key][dd+" "+pd] = true
				rep.digests[key+"/data"], rep.digests[key+"/pred"] = dd, pd
				lastPreds = preds
				rep.sampleHost()
			}
		}
		cycles++
		// Run at least two cycles, so outputs are compared across cycles
		// and a traced run times every cell traced and untraced; start
		// another only if it should end within the budget.
		elapsed, last := time.Since(start), time.Since(cycleStart)
		if cycles >= 2 && elapsed+last > rc.measure {
			break
		}
	}
	md := mem.since()

	for key, seen := range cells {
		if len(seen) != 1 {
			return rep, fmt.Errorf("remedy-train: %s gave %d distinct outputs over %d cycles", key, len(seen), cycles)
		}
	}
	if len(cells) != len(remedyTechniques)*len(remedyModels) {
		return rep, fmt.Errorf("remedy-train: only %d of %d cells completed", len(cells), len(remedyTechniques)*len(remedyModels))
	}
	if err := rc.checkGolden(rep); err != nil {
		return rep, fmt.Errorf("remedy-train: %w", err)
	}
	rep.printf("%d cells: remedied-data and prediction digests identical over %d cycles", len(cells), cycles)

	if rc.tr == nil {
		rep.latency(untraced)
		rep.peakRSS()
		return rep, nil
	}
	if err := layer.report(ctx, rep, sp, lastPreds, rc.seed); err != nil {
		return rep, err
	}
	rep.runtimePerOp("remedy-train", md, len(untraced)+len(traced))
	rep.overhead("remedy-train", untraced, traced)
	rep.printSelfTimes(rc.tr, len(traced))
	return rep, nil
}

// remedyLayers accumulates the traced ops' per-layer numbers.
type remedyLayers struct {
	applyMS, applyMB map[remedy.Technique][]float64
	reports          map[remedy.Technique]*remedy.Report
	fitMS            map[ml.ModelKind][]float64
	predictMS        []float64
	exploreMS        []float64
}

// op runs one cell; traced, each layer call gets its own span.
func (l *remedyLayers) op(ctx context.Context, tr *tracer, traced bool, op int, sp remedySplit, tech remedy.Technique, model ml.ModelKind, seed int64) (*dataset.Dataset, []int, error) {
	if !traced {
		tr = nil
	}
	root := tr.begin(op, -1, "bench.op")
	defer tr.end(root)

	s, mem, t0 := tr.begin(op, root, "remedy.apply"), markMemIf(traced), time.Now()
	out, rrep, err := remedy.ApplyCtx(ctx, sp.train, remedy.Options{
		Identify: core.Config{TauC: 0.5, T: 1}, Technique: tech, Seed: seed,
	})
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		l.applyMS[tech] = append(l.applyMS[tech], msSince(t0))
		l.applyMB[tech] = append(l.applyMB[tech], mem.since().allocMB)
		l.reports[tech] = rrep
	}

	s, t0 = tr.begin(op, root, "ml.fit"), time.Now()
	m, err := ml.TrainKindCtx(ctx, out, model, seed)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		l.fitMS[model] = append(l.fitMS[model], msSince(t0))
	}

	s, t0 = tr.begin(op, root, "ml.predict"), time.Now()
	preds := m.Predict(sp.test)
	tr.end(s)
	if traced {
		l.predictMS = append(l.predictMS, msSince(t0))
	}

	s, t0 = tr.begin(op, root, "divexplorer.explore"), time.Now()
	_, err = experiments.Score(sp.test, preds)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		l.exploreMS = append(l.exploreMS, msSince(t0))
	}
	return out, preds, nil
}

func markMemIf(on bool) *memMark {
	if !on {
		return nil
	}
	return markMem()
}

func (l *remedyLayers) report(ctx context.Context, rep *report, sp remedySplit, preds []int, seed int64) error {
	for _, t := range remedyTechniques {
		r := l.reports[t]
		rep.set("remedy.apply_s."+string(t), median(l.applyMS[t])/1e3, "s")
		rep.set("remedy.apply_alloc_mb."+string(t), median(l.applyMB[t]), "MiB")
		rep.set("remedy.added."+string(t), float64(r.Added), "count")
		rep.set("remedy.removed."+string(t), float64(r.Removed), "count")
		rep.set("remedy.flipped."+string(t), float64(r.Flipped), "count")
		rep.set("remedy.biased_regions."+string(t), float64(r.BiasedRegions), "count")
	}
	for _, m := range remedyModels {
		rep.set("ml.fit_s."+string(m), median(l.fitMS[m])/1e3, "s")
	}
	rep.set("ml.predict_s", median(l.predictMS)/1e3, "s")
	rep.set("divexplorer.explore_s", median(l.exploreMS)/1e3, "s")
	ex, err := divexplorer.ExploreCtx(ctx, sp.test, preds, fairness.FPR, divexplorer.Options{})
	if err != nil {
		return fmt.Errorf("remedy-train: explore probe: %w", err)
	}
	rep.set("divexplorer.subgroups", float64(len(ex.Subgroups)), "count")

	// Probe: one random-forest fit on the original split.
	t0 := time.Now()
	if _, err := ml.TrainKindCtx(ctx, sp.train, ml.RF, seed); err != nil {
		return fmt.Errorf("remedy-train: RF probe: %w", err)
	}
	rep.set("ml.fit_s.RF", time.Since(t0).Seconds(), "s")
	return nil
}

// datasetDigest fingerprints a dataset's rows, labels and weights.
func datasetDigest(d *dataset.Dataset) string {
	h := sha256.New()
	var b [8]byte
	for i, row := range d.Rows {
		for _, v := range row {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			h.Write(b[:4])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.Weight(i)))
		h.Write(b[:])
		h.Write([]byte{byte(d.Labels[i])})
	}
	return hexSum(h)
}

func predsDigest(preds []int) string {
	h := sha256.New()
	for _, p := range preds {
		h.Write([]byte{byte(p)})
	}
	return hexSum(h)
}
