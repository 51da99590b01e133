package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// recordIdentifyMetrics folds one finished identification's work
// counters into the context's metrics registry (a no-op without one):
// identify.nodes_visited / nodes_pruned are the regions examined and
// size-filtered, regions_flagged the IBS members found, neighbor_ops
// the aggregation count the optimized algorithm reduces.
func recordIdentifyMetrics(ctx context.Context, res *Result) {
	m := obs.MetricsFrom(ctx)
	if m == nil {
		return
	}
	m.Counter("identify.nodes_visited").Add(int64(res.Explored))
	m.Counter("identify.nodes_pruned").Add(int64(res.Pruned))
	m.Counter("identify.regions_flagged").Add(int64(len(res.Regions)))
	m.Counter("identify.neighbor_ops").Add(int64(res.NeighborOps))
}

// finishIdentifySpan stamps the result attributes on an identification
// span and ends it.
func finishIdentifySpan(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	sp.SetInt("explored", int64(res.Explored))
	sp.SetInt("pruned", int64(res.Pruned))
	sp.SetInt("regions", int64(len(res.Regions)))
	sp.End()
}

// ctxCheckStride bounds how many regions a traversal examines between
// cooperative cancellation checks. Small enough that a cancelled scan
// returns promptly (well under the 100ms budget the tests assert) and
// large enough that ctx.Err polling stays off the per-region profile.
const ctxCheckStride = 256

// canceler amortizes ctx.Err polling across a traversal: the first
// cancelled() call polls ctx (so an already-cancelled context aborts
// before any work, however small the space), then once per stride of
// calls; after a poll reports cancellation the traversal unwinds and
// the recorded error propagates. The context is threaded into each
// cancelled(ctx) call rather than stored, keeping cancellation
// attached to the call tree (ctxfirst contract).
type canceler struct {
	count int
	err   error
}

func (c *canceler) cancelled(ctx context.Context) bool {
	if c.err != nil {
		return true
	}
	if c.count%ctxCheckStride != 0 {
		c.count++
		return false
	}
	c.count++
	c.err = ctx.Err()
	return c.err != nil
}

// WorkerPanicError reports a panic recovered inside a parallel
// identification worker: the offending hierarchy node, the panic value,
// and the worker's stack. IdentifyOptimizedCtx returns it instead of
// letting the panic take down the process.
type WorkerPanicError struct {
	Mask  uint32 // deterministic-slot mask of the node being scanned
	Value any    // recovered panic value
	Stack []byte // worker stack at the point of the panic
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: identify worker panicked on node %#x: %v", e.Mask, e.Value)
}

// IdentifyNaive runs the naïve IBS identification of §III-A: for every
// candidate region it enumerates all neighbors within distance T —
// (c-1)·d·T regions — and computes each neighbor's counts separately by
// scanning the dataset, with no result reuse across regions. This is
// the repeated work the optimized algorithm eliminates (§III-B): the
// hierarchy construction and size filter (Algorithm 1 lines 1-2) are
// shared, but neighbor aggregates are recomputed per region.
func IdentifyNaive(d *dataset.Dataset, cfg Config) (*Result, error) {
	return IdentifyNaiveCtx(context.Background(), d, cfg)
}

// IdentifyNaiveCtx is IdentifyNaive under a context: the traversal
// checks ctx cooperatively between regions and returns the partial
// Result accumulated so far alongside ctx.Err() when cancelled.
func IdentifyNaiveCtx(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	h, err := NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	return h.IdentifyNaiveCtx(ctx, cfg)
}

// IdentifyNaive is the method form operating on an existing hierarchy,
// reusing its memoized node tables.
func (h *Hierarchy) IdentifyNaive(cfg Config) (*Result, error) {
	return h.IdentifyNaiveCtx(context.Background(), cfg)
}

// IdentifyNaiveCtx is the context-aware method form. On cancellation it
// returns the regions identified so far together with ctx.Err().
func (h *Hierarchy) IdentifyNaiveCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.naive")
	sp.SetStr("scope", cfg.Scope.String())
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	k := cfg.minSize()
	c := &canceler{}
	for _, mask := range h.masksForScope(cfg.Scope) {
		h.Space.EnumerateNodeUntil(mask, func(p pattern.Pattern) bool {
			if c.cancelled(ctx) {
				return false
			}
			rc := h.count(p)
			if rc.N <= k {
				res.Pruned++
				return true
			}
			res.Explored++
			var nc pattern.Counts
			visit := func(q pattern.Pattern) {
				// Count the neighbor from scratch — the naïve
				// algorithm's separate, repeated computation.
				cnt := h.Space.CountPattern(h.Data, q)
				nc.N += cnt.N
				nc.Pos += cnt.Pos
				res.NeighborOps++
			}
			switch {
			case cfg.EuclideanT > 0:
				h.Space.NeighborsEuclidean(p, cfg.EuclideanT, visit)
			case cfg.OrderedDistance:
				h.Space.NeighborsOrdered(p, visit)
			default:
				h.Space.Neighbors(p, cfg.T, visit)
			}
			appendIfBiased(res, p, rc, nc, cfg.TauC)
			return true
		})
		if c.err != nil {
			break
		}
	}
	h.sortRegions(res.Regions)
	return res, c.err
}

// IdentifyOptimized runs Algorithm 1 (§III-B): neighborhood counts are
// derived from the d·T dominating regions T levels up, whose counts are
// computed once per node and shared across the node's regions. It is
// exact for T = 1 (the identity Σ_{R_d} counts − |R_d|·counts(r) equals
// the direct neighbor sum) and for T ≥ d (where the neighboring region
// is all siblings: dataset totals minus the region). For intermediate T
// the paper's formula weights nearer neighbors more heavily; the paper
// evaluates only T = 1 and T = |X|.
func IdentifyOptimized(d *dataset.Dataset, cfg Config) (*Result, error) {
	return IdentifyOptimizedCtx(context.Background(), d, cfg)
}

// IdentifyOptimizedCtx is IdentifyOptimized under a context. The
// traversal (sequential or parallel) checks ctx cooperatively; on
// cancellation the partial Result identified so far is returned
// alongside ctx.Err(). A panic inside a parallel worker is recovered
// and surfaces as a *WorkerPanicError instead of crashing the process.
func IdentifyOptimizedCtx(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	h, err := NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	return h.IdentifyOptimizedCtx(ctx, cfg)
}

// IdentifyOptimized is the method form operating on an existing
// hierarchy.
func (h *Hierarchy) IdentifyOptimized(cfg Config) (*Result, error) {
	return h.IdentifyOptimizedCtx(context.Background(), cfg)
}

// IdentifyOptimizedCtx is the context-aware method form; see
// IdentifyOptimizedCtx (package form) for the cancellation and
// panic-recovery contract.
func (h *Hierarchy) IdentifyOptimizedCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	if cfg.OrderedDistance || cfg.EuclideanT > 0 {
		// The dominating-region identity assumes the basic
		// unit-distance setting; fall back to the naïve traversal.
		return h.IdentifyNaiveCtx(ctx, cfg)
	}
	if cfg.Workers > 1 && cfg.OnLevel == nil {
		// OnLevel forces the sequential path: checkpoints are cut at
		// level barriers, which the parallel fan-out does not have.
		return h.identifyOptimizedParallel(ctx, cfg)
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.optimized")
	sp.SetStr("scope", cfg.Scope.String())
	sp.SetInt("T", int64(cfg.T))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	c := &canceler{}
	levelHist := obs.MetricsFrom(ctx).Histogram("identify.level_ms", obs.DefaultDurationBucketsMS)
	resume := cfg.resumeByLevel()
	applied := make(map[int]bool, len(resume))
	var (
		lvlSpan  *obs.Span
		curLevel = -1
		lvlStart time.Time
		// Counter values at the current level's start, so the level's
		// checkpoint carries deltas.
		lvlRegs, lvlExp, lvlNbr, lvlPrn int
	)
	// endLevel closes the open level's span; when the level ran to
	// completion it also cuts the checkpoint, whose error aborts the
	// traversal.
	endLevel := func(completed bool) error {
		if curLevel < 0 {
			return nil
		}
		lvlSpan.End()
		levelHist.Observe(float64(time.Since(lvlStart).Microseconds()) / 1000)
		lv := curLevel
		curLevel = -1
		if !completed || cfg.OnLevel == nil {
			return nil
		}
		return cfg.OnLevel(ctx, LevelSnapshot{
			Level:       lv,
			Regions:     append([]Region(nil), res.Regions[lvlRegs:]...),
			Explored:    res.Explored - lvlExp,
			NeighborOps: res.NeighborOps - lvlNbr,
			Pruned:      res.Pruned - lvlPrn,
		})
	}
	for _, mask := range h.masksForScope(cfg.Scope) {
		// The bottom-up traversal visits the lattice level by level;
		// each level gets its own timing span so the trace shows where
		// the walk spends its time (the leaf level dominates).
		lv := levelOf(mask)
		if snap, ok := resume[lv]; ok {
			// Checkpointed by a previous attempt: fold the snapshot in
			// once and skip the level's masks entirely.
			if !applied[lv] {
				if err := endLevel(true); err != nil {
					h.sortRegions(res.Regions)
					return res, err
				}
				res.Regions = append(res.Regions, snap.Regions...)
				res.Explored += snap.Explored
				res.NeighborOps += snap.NeighborOps
				res.Pruned += snap.Pruned
				applied[lv] = true
			}
			continue
		}
		if lv != curLevel {
			if err := endLevel(true); err != nil {
				h.sortRegions(res.Regions)
				return res, err
			}
			//lint:allow obspair lvlSpan is ended by the endLevel closure on every path, but the closure is always invoked in if-init position (`if err := endLevel(...)`) which the source-order scan cannot credit as an End
			_, lvlSpan = obs.StartSpan(ctx, "core.identify.level")
			lvlSpan.SetInt("level", int64(lv))
			curLevel = lv
			lvlRegs, lvlExp, lvlNbr, lvlPrn = len(res.Regions), res.Explored, res.NeighborOps, res.Pruned
			//lint:allow determinism level timing feeds the trace histogram only; pipeline output is unaffected
			lvlStart = time.Now()
		}
		h.scanNodeOptimized(ctx, mask, cfg, res, c)
		if c.err != nil {
			break
		}
	}
	if err := endLevel(c.err == nil); err != nil {
		h.sortRegions(res.Regions)
		return res, err
	}
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelDebug) {
		lg.Scope("core").Debug("identify done",
			"explored", res.Explored, "pruned", res.Pruned, "regions", len(res.Regions))
	}
	h.sortRegions(res.Regions)
	return res, c.err
}

// identifyOptimizedParallel preloads every count and scans the nodes
// concurrently. After Preload the counts are read-only, so the per-node
// scans share them without synchronization; each goroutine accumulates
// into a private Result and the shards merge deterministically.
//
// Failure handling: a panic inside a worker is recovered into a
// *WorkerPanicError carrying the node mask, and the first failure —
// panic, injected fault, or cancellation of ctx — cancels the remaining
// shards. All workers are joined before returning, so no goroutines
// outlive the call; completed shards still merge into the returned
// (partial) Result.
func (h *Hierarchy) identifyOptimizedParallel(ctx context.Context, cfg Config) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "core.identify.parallel")
	sp.SetStr("scope", cfg.Scope.String())
	sp.SetInt("workers", int64(cfg.Workers))
	if err := h.PreloadCtx(ctx, cfg.Workers); err != nil {
		sp.End()
		return &Result{Space: h.Space, Config: cfg}, err
	}
	masks := h.masksForScope(cfg.Scope)
	// Resumed levels are folded in from their snapshots at the merge and
	// their masks dropped from the fan-out.
	resume := cfg.resumeByLevel()
	if resume != nil {
		kept := make([]uint32, 0, len(masks))
		for _, m := range masks {
			if _, ok := resume[levelOf(m)]; !ok {
				kept = append(kept, m)
			}
		}
		masks = kept
	}
	shards := make([]*Result, len(masks))
	errs := make([]error, len(masks))
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
dispatch:
	for i, mask := range masks {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		wg.Add(1)
		go func(i int, mask uint32) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &WorkerPanicError{Mask: mask, Value: r, Stack: debug.Stack()}
					cancel() // first failure stops the remaining shards
				}
			}()
			if ctx.Err() != nil {
				return
			}
			// Each worker shard gets its own span under the parallel
			// parent, so the trace shows the fan-out and any straggler
			// nodes. The deferred End runs during panic unwinding, ahead
			// of the recover above, so crashed shards stay visible.
			wctx, ssp := obs.StartSpan(ctx, "core.identify.shard")
			ssp.SetInt("node", int64(mask))
			defer ssp.End()
			if faults.Active() {
				if err := faults.FireCtx(wctx, faults.IdentifyWorker, mask); err != nil {
					errs[i] = fmt.Errorf("core: identify node %#x: %w", mask, err)
					cancel()
					return
				}
			}
			shard := &Result{Space: h.Space, Config: cfg}
			h.scanNodeOptimized(wctx, mask, cfg, shard, &canceler{})
			ssp.SetInt("regions", int64(len(shard.Regions)))
			shards[i] = shard
		}(i, mask)
	}
	wg.Wait()
	res := &Result{Space: h.Space, Config: cfg}
	for _, shard := range shards {
		if shard == nil {
			continue
		}
		res.Regions = append(res.Regions, shard.Regions...)
		res.Explored += shard.Explored
		res.NeighborOps += shard.NeighborOps
		res.Pruned += shard.Pruned
	}
	if resume != nil {
		inScope := make(map[int]bool)
		for _, m := range h.masksForScope(cfg.Scope) {
			inScope[levelOf(m)] = true
		}
		lvls := make([]int, 0, len(resume))
		for lv := range resume {
			if inScope[lv] {
				lvls = append(lvls, lv)
			}
		}
		sort.Ints(lvls)
		for _, lv := range lvls {
			snap := resume[lv]
			res.Regions = append(res.Regions, snap.Regions...)
			res.Explored += snap.Explored
			res.NeighborOps += snap.NeighborOps
			res.Pruned += snap.Pruned
		}
	}
	finishIdentifySpan(sp, res)
	recordIdentifyMetrics(ctx, res)
	h.sortRegions(res.Regions)
	// Worker failures outrank plain cancellation: a panic or injected
	// fault also cancels ctx, and reporting the cause beats reporting
	// the symptom.
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, ctx.Err()
}

// scanNodeOptimized runs the optimized per-node identification (lines
// 4-12 of Algorithm 1) for one hierarchy node, appending biased regions
// to res. The scan aborts early once c reports cancellation.
func (h *Hierarchy) scanNodeOptimized(ctx context.Context, mask uint32, cfg Config, res *Result, c *canceler) {
	k := cfg.minSize()
	d := levelOf(mask)
	T := cfg.T
	if T > d {
		T = d
	}
	h.Space.EnumerateNodeUntil(mask, func(p pattern.Pattern) bool {
		if c.cancelled(ctx) {
			return false
		}
		rc := h.count(p)
		if rc.N <= k {
			res.Pruned++
			return true
		}
		res.Explored++
		nc := h.neighborViaDominating(p, rc, T, res)
		appendIfBiased(res, p, rc, nc, cfg.TauC)
		return true
	})
}

// BiasedRegionsInNode identifies the biased regions of a single
// hierarchy node with the optimized algorithm — the GETBIASEDREGIONS
// step of Algorithm 2, which the remedy loop re-runs per node against
// the evolving dataset.
func (h *Hierarchy) BiasedRegionsInNode(mask uint32, cfg Config) ([]Region, error) {
	return h.BiasedRegionsInNodeCtx(context.Background(), mask, cfg)
}

// BiasedRegionsInNodeCtx is BiasedRegionsInNode under a context; on
// cancellation the regions found so far return alongside ctx.Err().
func (h *Hierarchy) BiasedRegionsInNodeCtx(ctx context.Context, mask uint32, cfg Config) ([]Region, error) {
	if err := cfg.validate(h.Space); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.node")
	sp.SetInt("node", int64(mask))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	c := &canceler{}
	h.scanNodeOptimized(ctx, mask, cfg, res, c)
	h.sortRegions(res.Regions)
	return res.Regions, c.err
}

// MasksForScope exposes the bottom-up node traversal order of the
// given scope for callers (the remedy driver) that walk the hierarchy
// themselves.
func (h *Hierarchy) MasksForScope(s Scope) []uint32 { return h.masksForScope(s) }

// neighborViaDominating computes the neighboring-region counts of p via
// the set R_d of dominating regions T levels up (line 9-10 of
// Algorithm 1): remove T deterministic elements in every possible way,
// sum the ancestors' counts, and subtract the |R_d|-fold over-count of
// the region itself.
func (h *Hierarchy) neighborViaDominating(p pattern.Pattern, rc pattern.Counts, T int, res *Result) pattern.Counts {
	d := p.Level()
	if T >= d {
		// R_d = {level-0 root}: the neighboring region is every sibling,
		// i.e. the dataset totals minus the region.
		res.NeighborOps++
		tot := h.Totals()
		return pattern.Counts{N: tot.N - rc.N, Pos: tot.Pos - rc.Pos}
	}
	var sum pattern.Counts
	size := 0
	add := func(c pattern.Counts) {
		sum.N += c.N
		sum.Pos += c.Pos
		size++
	}
	if T == 1 && h.isDense() {
		// Dropping slot i zeroes its digit: that parent's cell lies
		// (p[i]+1)·stride_i below p's.
		idx := h.cube.Index(p)
		for i, v := range p {
			if v != pattern.Wildcard {
				add(h.cube.LabelCounts(idx - int(v+1)*h.cube.Stride(i)))
			}
		}
	} else {
		h.ancestorsTLevelsUp(p, T, func(q pattern.Pattern) { add(h.count(q)) })
	}
	res.NeighborOps += size
	return pattern.Counts{N: sum.N - size*rc.N, Pos: sum.Pos - size*rc.Pos}
}

// ancestorsTLevelsUp calls f for each pattern obtained from p by
// removing exactly T deterministic elements. For T = 1 this is
// Space.Parents.
func (h *Hierarchy) ancestorsTLevelsUp(p pattern.Pattern, T int, f func(pattern.Pattern)) {
	if T == 1 {
		h.Space.Parents(p, f)
		return
	}
	slots := make([]int, 0, len(p))
	for i, v := range p {
		if v != pattern.Wildcard {
			slots = append(slots, i)
		}
	}
	q := p.Clone()
	var choose func(start, remaining int)
	choose = func(start, remaining int) {
		if remaining == 0 {
			f(q)
			return
		}
		for k := start; k <= len(slots)-remaining; k++ {
			s := slots[k]
			q[s] = pattern.Wildcard
			choose(k+1, remaining-1)
			q[s] = p[s]
		}
	}
	choose(0, T)
}

// appendIfBiased applies Def. 5: the region joins the IBS when
// |ratio_r − ratio_rn| > τ_c. The −1 sentinel of Def. 3 (no negative
// instances) participates numerically, as in the paper: an all-positive
// region next to a balanced neighborhood is maximally suspicious.
func appendIfBiased(res *Result, p pattern.Pattern, rc, nc pattern.Counts, tauC float64) {
	ratio := rc.Ratio()
	nratio := nc.Ratio()
	if math.Abs(ratio-nratio) > tauC {
		res.Regions = append(res.Regions, Region{
			Pattern:        p.Clone(),
			Counts:         rc,
			Ratio:          ratio,
			NeighborCounts: nc,
			NeighborRatio:  nratio,
		})
	}
}
