package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// IdentifyNaiveCtx is the method form operating on an existing
// hierarchy, reusing its memoized counts. On cancellation it returns
// the regions identified so far together with ctx.Err().
func (h *Hierarchy) IdentifyNaiveCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
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
			h.Space.Neighbors(p, cfg.T, visit)
			res.Regions = appendIfBiased(res.Regions, p, rc, nc, cfg.TauC)
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
// exact at every T: for T = 1 the identity Σ_{R_d} counts −
// |R_d|·counts(r) equals the direct neighbor sum, for T ≥ d the
// neighboring region is all siblings (dataset totals minus the
// region), and in between the neighborhood is recovered from the
// ancestors 1..T levels up by inverting their overlap
// (neighborViaDominating). The paper's own formula for intermediate T
// weighs nearer neighbors more heavily; the paper evaluates only T = 1
// and T = |X|.
func IdentifyOptimized(d *dataset.Dataset, cfg Config) (*Result, error) {
	return IdentifyOptimizedCtx(context.Background(), d, cfg)
}

// IdentifyOptimizedCtx is IdentifyOptimized under a context. The
// traversal checks ctx cooperatively; on cancellation the partial
// Result identified so far is returned alongside ctx.Err(). A panic
// inside a node scan is recovered and surfaces as a *WorkerPanicError
// instead of crashing the process.
func IdentifyOptimizedCtx(ctx context.Context, d *dataset.Dataset, cfg Config) (*Result, error) {
	h, err := NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	return h.IdentifyOptimizedCtx(ctx, cfg)
}

// IdentifyOptimizedCtx is the method form operating on an existing
// hierarchy; see IdentifyOptimizedCtx (package form) for the
// cancellation and panic-recovery contract.
//
// The traversal is level-synchronous: bottom-up, each level of the
// scope either folds in its Resume snapshot or is scanned by scanLevel,
// and a scanned level ends at a barrier where its checkpoint is cut.
// The Result and the checkpoints are the same at every Workers count.
func (h *Hierarchy) IdentifyOptimizedCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.optimized")
	sp.SetStr("scope", cfg.Scope.String())
	sp.SetInt("T", int64(cfg.T))
	sp.SetInt("workers", int64(cfg.Workers))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	levelHist := obs.MetricsFrom(ctx).Histogram("identify.level_ms", obs.DefaultDurationBucketsMS)
	resume := cfg.resumeByLevel()
	var all LevelSnapshot // every level so far, in traversal order
	var err error
	for masks := h.masksForScope(cfg.Scope); len(masks) > 0 && err == nil; {
		lv, n := levelOf(masks[0]), 1
		for n < len(masks) && levelOf(masks[n]) == lv {
			n++
		}
		level := masks[:n]
		masks = masks[n:]
		if snap, ok := resume[lv]; ok {
			// Checkpointed by a previous attempt: fold the snapshot in
			// and skip the level's masks.
			all.add(snap)
			continue
		}
		// Each level gets its own timing span so the trace shows where
		// the walk spends its time (the leaf level dominates).
		_, lvlSpan := obs.StartSpan(ctx, "core.identify.level")
		lvlSpan.SetInt("level", int64(lv))
		//lint:allow determinism level timing feeds the trace histogram only; pipeline output is unaffected
		start := time.Now()
		before := all
		err = h.scanLevel(ctx, level, cfg, &all)
		lvlSpan.End()
		levelHist.Observe(float64(time.Since(start).Microseconds()) / 1000)
		if err == nil && cfg.OnLevel != nil {
			err = cfg.OnLevel(ctx, LevelSnapshot{
				Level:       lv,
				Regions:     append([]Region(nil), all.Regions[len(before.Regions):]...),
				Explored:    all.Explored - before.Explored,
				NeighborOps: all.NeighborOps - before.NeighborOps,
				Pruned:      all.Pruned - before.Pruned,
			})
		}
	}
	res.Regions, res.Explored, res.NeighborOps, res.Pruned = all.Regions, all.Explored, all.NeighborOps, all.Pruned
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelDebug) {
		lg.Scope("core").Debug("identify done",
			"explored", res.Explored, "pruned", res.Pruned, "regions", len(res.Regions))
	}
	h.sortRegions(res.Regions)
	return res, err
}

// scanLevel scans the nodes masks of one level into out. It fills the
// counts the level reads, then scans the nodes on min(Workers,
// len(masks)) goroutines, or inline when that is one, and adds the
// per-node shards to out in mask order. The first failure cancels the
// rest of the level, and every worker is joined before scanLevel
// returns. A worker's error outranks ctx.Err(): a panic or injected
// fault also cancels the level, and the cause beats the symptom. On an
// error out holds the nodes scanned so far.
func (h *Hierarchy) scanLevel(ctx context.Context, masks []uint32, cfg Config, out *LevelSnapshot) error {
	if err := h.fill(ctx, h.levelReads(masks, cfg.T)); err != nil {
		return err
	}
	workers := min(cfg.Workers, len(masks))
	if workers <= 1 {
		// Inline, in mask order: every node scans straight into out.
		for i := 0; i < len(masks) && ctx.Err() == nil; i++ {
			if err := h.scanMask(ctx, masks[i], cfg, out); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	shards := make([]LevelSnapshot, len(masks))
	errs := make([]error, len(masks))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(masks) && wctx.Err() == nil; i = int(next.Add(1)) - 1 {
				if errs[i] = h.scanMask(wctx, masks[i], cfg, &shards[i]); errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, shard := range shards {
		out.add(shard)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// levelReads returns the nodes a level's scan reads, nearest first (a
// node rolls up fastest from one attribute more): the level's own
// masks; every node 1 to T levels up, which the neighborhoods read
// (none once T reaches the level, whose neighborhoods come from the
// totals; at T = 1 only the level above); and at the other levels
// each mask's prefix ancestor, its first slots, at which
// scanNodeOptimized tests the size floor.
func (h *Hierarchy) levelReads(masks []uint32, T int) []uint32 {
	lv := levelOf(masks[0])
	reads := masks[:len(masks):len(masks)]
	for up := lv - 1; up >= 0; up-- {
		if T < lv && up >= lv-T {
			for m := uint32(1); m < uint32(1)<<uint(h.Space.Dim()); m++ {
				if levelOf(m) == up {
					reads = append(reads, m)
				}
			}
			continue
		}
		for _, m := range masks {
			for levelOf(m) > up {
				m &^= 1 << uint(31-bits.LeadingZeros32(m)) // drop the last slot
			}
			reads = append(reads, m)
		}
	}
	return reads
}

// scanMask is the traversal's one per-node scan, at every worker
// count: it fires faults.IdentifyWorker, scans node mask into out, and
// recovers a panic into a *WorkerPanicError. A scan that ctx cuts short
// returns nil; the level reports the cancellation.
func (h *Hierarchy) scanMask(ctx context.Context, mask uint32, cfg Config, out *LevelSnapshot) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &WorkerPanicError{Mask: mask, Value: r, Stack: debug.Stack()}
		}
	}()
	if faults.Active() {
		if err := faults.FireCtx(ctx, faults.IdentifyWorker, mask); err != nil {
			return fmt.Errorf("core: identify node %#x: %w", mask, err)
		}
	}
	h.scanNodeOptimized(ctx, mask, cfg, out, &canceler{})
	return nil
}

// scanNodeOptimized runs the optimized per-node identification (lines
// 4-12 of Algorithm 1) for one hierarchy node, adding its biased
// regions and work counters to out. The scan aborts early once c
// reports cancellation.
//
// It walks the node's regions in EnumerateNode's order, an odometer
// over the node's slots whose first slot turns slowest, and carries
// each region's lattice address (pattern.Lattice.Stride) one digit at
// a time. With the first j slots set and the rest wildcarded, the
// address is that of the prefix ancestor every region below it shares.
// A region holds no more rows than its ancestors, so once a prefix
// ancestor is at or under MinSize the whole sub-block below it is
// pruned: the walk adds its size to Pruned and moves on. The level's
// fill derives the prefix nodes (levelReads), so a concurrent scan
// only reads.
func (h *Hierarchy) scanNodeOptimized(ctx context.Context, mask uint32, cfg Config, out *LevelSnapshot, c *canceler) {
	lat := h.lattice()
	var w nodeWalk
	n := w.reset(h.Space, lat, mask)
	k := cfg.minSize()
	T := min(cfg.T, n)
	p := w.p
	for j := 0; ; {
		// The region at depth j has slots[:j] set, at address addr[j].
		if c.cancelled(ctx) {
			return
		}
		rc := h.countAt(w.addr[j], w.masks[j])
		switch {
		case rc.N <= k:
			out.Pruned += w.block[j]
		case j < n:
			p[w.slots[j]] = 0
			w.addr[j+1] = w.addr[j] + w.step[j]
			j++
			continue
		default:
			out.Explored++
			nc, ops := h.neighborViaDominating(p, mask, w.addr[n], rc, T)
			out.NeighborOps += ops
			out.Regions = appendIfBiased(out.Regions, p, rc, nc, cfg.TauC)
		}
		// Advance the deepest set slot, unsetting the exhausted ones.
		for ; j > 0; j-- {
			s := w.slots[j-1]
			if p[s]+1 < w.card[j-1] {
				p[s]++
				w.addr[j] += w.step[j-1]
				break
			}
			p[s] = pattern.Wildcard
		}
		if j == 0 {
			return
		}
	}
}

// nodeWalk is scanNodeOptimized's state for one node of n slots. Depth
// j in 0..n is the region with the node's first j slots set.
type nodeWalk struct {
	p     pattern.Pattern            // the region under the walk
	slots [pattern.MaxDim]int        // the node's slots, ascending
	card  [pattern.MaxDim]int16      // card[j]: the values of slots[j]
	step  [pattern.MaxDim]uint64     // step[j]: the address stride of slots[j]
	masks [pattern.MaxDim + 1]uint32 // masks[j]: the node of slots[:j]
	block [pattern.MaxDim + 1]int    // block[j]: the node's regions below depth j
	addr  [pattern.MaxDim + 1]uint64 // addr[j]: the address at depth j
}

// reset starts a walk of node mask over lattice lat at its
// all-wildcard prefix and returns the node's level n.
func (w *nodeWalk) reset(sp *pattern.Space, lat *pattern.Lattice, mask uint32) int {
	w.p = pattern.NewPattern(sp.Dim())
	n := 0
	for s := 0; s < sp.Dim(); s++ {
		if mask&(1<<uint(s)) != 0 {
			w.slots[n], w.card[n], w.step[n] = s, int16(sp.Cards[s]), lat.Stride(s)
			w.masks[n+1] = w.masks[n] | 1<<uint(s)
			n++
		}
	}
	w.block[n] = 1
	for j := n - 1; j >= 0; j-- {
		w.block[j] = w.block[j+1] * int(w.card[j])
	}
	return n
}

// BiasedRegionsInNodeCtx identifies the biased regions of a single
// hierarchy node with the optimized algorithm — the GETBIASEDREGIONS
// step of Algorithm 2, which the remedy loop re-runs per node against
// the evolving dataset. On cancellation the regions found so far
// return alongside ctx.Err().
func (h *Hierarchy) BiasedRegionsInNodeCtx(ctx context.Context, mask uint32, cfg Config) ([]Region, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "core.identify.node")
	sp.SetInt("node", int64(mask))
	res := &Result{Space: h.Space, Config: cfg}
	defer finishIdentifySpan(sp, res)
	defer recordIdentifyMetrics(ctx, res)
	c := &canceler{}
	var node LevelSnapshot
	h.scanNodeOptimized(ctx, mask, cfg, &node, c)
	res.Regions, res.Explored, res.NeighborOps, res.Pruned = node.Regions, node.Explored, node.NeighborOps, node.Pruned
	h.sortRegions(res.Regions)
	return res.Regions, c.err
}

// MasksForScope exposes the bottom-up node traversal order of the
// given scope for callers (the remedy driver) that walk the hierarchy
// themselves.
func (h *Hierarchy) MasksForScope(s Scope) []uint32 { return h.masksForScope(s) }

// neighborViaDominating computes the neighboring-region counts of p
// from the dominating regions above it (lines 9-10 of Algorithm 1). It
// also returns the number of aggregations.
//
// At T >= d the neighborhood is every sibling: the dataset totals
// minus p. At T = 1 the set R_d is p's d parents: sum their counts and
// subtract the d-fold over-count of p itself (read by offset from p's
// lattice address a). In between, the paper's sum over the C(d, T)
// ancestors T levels up weighs a row by how many of them hold it, so
// Def. 4's neighborhood is recovered by inversion, which at T = 1 is
// the parents' identity again. Let A_u sum the counts of the C(d, u) ancestors with u of p's fixed
// attributes dropped (A_0 = |r|), and E_j count the rows that differ
// from p on exactly j of them. Such a row lies in C(d−j, u−j) of the
// ancestors, so A_u = Σ_{j≤u} C(d−j, u−j)·E_j, whence
// E_j = Σ_{u≤j} (−1)^{j−u}·C(d−u, j−u)·A_u and the neighborhood
// Σ_{j=1..T} E_j is Σ_{u=0..T} w_u·A_u (neighborWeight), in integers.
func (h *Hierarchy) neighborViaDominating(p pattern.Pattern, mask uint32, a uint64, rc pattern.Counts, T int) (pattern.Counts, int) {
	d := levelOf(mask)
	if T >= d {
		// R_d = {level-0 root}: the neighboring region is every sibling,
		// i.e. the dataset totals minus the region.
		tot := h.Totals()
		return pattern.Counts{N: tot.N - rc.N, Pos: tot.Pos - rc.Pos}, 1
	}
	var sum pattern.Counts
	size := 0
	add := func(c pattern.Counts) {
		sum.N += c.N
		sum.Pos += c.Pos
		size++
	}
	if T == 1 {
		// Dropping slot i zeroes its digit: that parent's address lies
		// (p[i]+1)·Stride(i) below p's.
		lat := h.lattice()
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			add(h.countAt(a-uint64(p[i]+1)*lat.Stride(i), mask&^(1<<uint(i))))
		}
		return pattern.Counts{N: sum.N - size*rc.N, Pos: sum.Pos - size*rc.Pos}, size
	}
	w := neighborWeight(d, T, 0)
	nc := pattern.Counts{N: w * rc.N, Pos: w * rc.Pos}
	for u := 1; u <= T; u++ {
		sum = pattern.Counts{}
		h.ancestorsTLevelsUp(p, u, func(q pattern.Pattern) { add(h.count(q)) })
		w = neighborWeight(d, T, u)
		nc.N += w * sum.N
		nc.Pos += w * sum.Pos
	}
	return nc, size
}

// neighborWeight is the weight w_u of A_u in a level-d region's
// neighborhood at threshold T: Σ_{j=max(u,1)..T} (−1)^{j−u}·C(d−u, j−u).
func neighborWeight(d, T, u int) int {
	w := 0
	c := 1 // C(d−u, j−u), starting from j = u
	for j := u; j <= T; j++ {
		if j > u {
			c = c * (d - j + 1) / (j - u)
		}
		if j == 0 {
			continue
		}
		if (j-u)%2 == 0 {
			w += c
		} else {
			w -= c
		}
	}
	return w
}

// ancestorsTLevelsUp calls f for each pattern obtained from p by
// removing exactly T deterministic elements.
func (h *Hierarchy) ancestorsTLevelsUp(p pattern.Pattern, T int, f func(pattern.Pattern)) {
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

// appendIfBiased applies Def. 5: the region joins the IBS, appended to
// rs, when |ratio_r − ratio_rn| > τ_c. The −1 sentinel of Def. 3 (no negative
// instances) participates numerically, as in the paper: an all-positive
// region next to a balanced neighborhood is maximally suspicious.
func appendIfBiased(rs []Region, p pattern.Pattern, rc, nc pattern.Counts, tauC float64) []Region {
	ratio := rc.Ratio()
	nratio := nc.Ratio()
	if math.Abs(ratio-nratio) > tauC {
		rs = append(rs, Region{
			Pattern:        p.Clone(),
			Counts:         rc,
			Ratio:          ratio,
			NeighborCounts: nc,
			NeighborRatio:  nratio,
		})
	}
	return rs
}
