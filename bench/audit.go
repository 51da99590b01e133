package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// minOps is the fewest ops a closed-loop phase runs, however short its
// time budget, so a traced run always has traced and untraced ops.
const minOps = 3

// auditConfig is Fig. 9's identification setting: τ_c = 0.5, T = 1,
// the full lattice, one worker.
var auditConfig = core.Config{TauC: 0.5, T: 1, Workers: 1}

// runAuditWide is a closed loop of one caller: each op identifies the
// IBS of synthetic Adult over the eight scalability-protected
// attributes, on a fresh hierarchy.
func runAuditWide(ctx context.Context, rc *runCtx) (*report, error) {
	rep := newReport()
	d, setupS, err := setupMedian(ctx, rc.sc, func(context.Context) (*dataset.Dataset, error) {
		return withProtected(synth.AdultN(rc.sc.adultRows, rc.seed), synth.AdultScalabilityProtected)
	}, func(*dataset.Dataset) {})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, "s")

	var untraced, traced []float64
	var layer auditLayers
	digests := map[string]int{}
	var last *core.Result
	mem := markMem()
	start := time.Now()
	for op := 0; op < minOps || time.Since(start) < rc.measure; op++ {
		rep.attempted++
		t0 := time.Now()
		var res *core.Result
		switch {
		case rc.traced(op):
			res, err = layer.op(ctx, rc.tr, op, d)
		case rc.tr != nil:
			res, err = layer.op(ctx, nil, op, d)
		default:
			res, err = core.IdentifyOptimizedCtx(ctx, d, auditConfig)
		}
		ms := msSince(t0)
		if err != nil {
			rep.failed++
			rep.printf("op %d failed: %v", op, err)
			continue
		}
		if rc.traced(op) {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		digests[ibsDigest(res)]++
		last = res
		rep.sampleHost()
	}
	md := mem.since()
	if last == nil {
		return rep, fmt.Errorf("audit-wide: every op failed")
	}

	// Output check: every op, and the parallel traversal, find the same
	// IBS; for committed seeds it is the golden one.
	t0 := time.Now()
	par, err := core.IdentifyOptimizedCtx(ctx, d, core.Config{TauC: 0.5, T: 1, Workers: runtime.GOMAXPROCS(0)})
	parMS := msSince(t0)
	if err != nil {
		return rep, fmt.Errorf("audit-wide: parallel identify: %w", err)
	}
	if len(digests) != 1 {
		return rep, fmt.Errorf("audit-wide: ops disagree: %d distinct IBS digests", len(digests))
	}
	digest := ibsDigest(last)
	if p := ibsDigest(par); p != digest {
		return rep, fmt.Errorf("audit-wide: Workers=%d digest %s differs from sequential %s", runtime.GOMAXPROCS(0), p, digest)
	}
	rep.digests["audit-wide/ibs"] = digest
	if err := rc.checkGolden(rep); err != nil {
		return rep, fmt.Errorf("audit-wide: %w", err)
	}
	rep.printf("IBS digest %s: %d regions, identical across %d ops and Workers=%d", digest, len(last.Regions), len(untraced)+len(traced), runtime.GOMAXPROCS(0))

	if rc.tr == nil {
		rep.latency(untraced)
		rep.peakRSS()
		return rep, nil
	}
	layer.report(rep, last, median(untraced), median(traced), parMS)
	rep.runtimePerOp("audit-wide", md, len(untraced)+len(traced))
	rep.overhead("audit-wide", untraced, traced)
	rep.printSelfTimes(rc.tr, len(traced))
	return rep, nil
}

// auditLayers accumulates the traced ops' per-layer numbers.
type auditLayers struct {
	countMS, countMB, countAllocs []float64
	traverseMS, traverseMB        []float64
	entries, rowsScanned          int
}

// op is the traced run's form of the identification, split at its
// layer boundary: pattern counts every node's table, core traverses
// the lattice. With a nil tracer it records nothing, which gives the
// untraced ops the tracing overhead is measured against.
func (l *auditLayers) op(ctx context.Context, tr *tracer, op int, d *dataset.Dataset) (*core.Result, error) {
	root := tr.begin(op, -1, "bench.op")
	defer tr.end(root)
	h, err := core.NewHierarchy(d)
	if err != nil {
		return nil, err
	}
	sp, mem, t0 := tr.begin(op, root, "pattern.count"), markMemIf(tr != nil), time.Now()
	err = h.PreloadCtx(ctx, 1)
	countMS := msSince(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return h.IdentifyOptimizedCtx(ctx, auditConfig)
	}
	md := mem.since()
	l.countMS = append(l.countMS, countMS)
	l.countMB = append(l.countMB, md.allocMB)
	l.countAllocs = append(l.countAllocs, md.allocs)

	sp, mem, t0 = tr.begin(op, root, "core.traverse"), markMem(), time.Now()
	res, err := h.IdentifyOptimizedCtx(ctx, auditConfig)
	l.traverseMS = append(l.traverseMS, msSince(t0))
	md = mem.since()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	l.traverseMB = append(l.traverseMB, md.allocMB)
	masks := h.Space.Masks()
	l.entries = 0
	for _, m := range masks {
		l.entries += len(h.Node(m))
	}
	l.rowsScanned = d.Len() * len(masks)
	return res, nil
}

// report records the per-layer metrics. seqMS and opMS are the median
// untraced and traced op latencies, parMS the Workers=GOMAXPROCS probe.
func (l *auditLayers) report(rep *report, res *core.Result, seqMS, opMS, parMS float64) {
	count, traverse := median(l.countMS), median(l.traverseMS)
	rep.set("pattern.count_s", count/1e3, "s")
	rep.set("pattern.count_alloc_mb", median(l.countMB), "MiB")
	rep.set("pattern.count_allocs", median(l.countAllocs), "count")
	rep.set("pattern.table_entries", float64(l.entries), "count")
	rep.set("pattern.rows_scanned", float64(l.rowsScanned), "count")
	rep.set("core.traverse_s", traverse/1e3, "s")
	rep.set("core.traverse_alloc_mb", median(l.traverseMB), "MiB")
	rep.set("core.nodes_visited", float64(res.Explored), "count")
	rep.set("core.nodes_pruned", float64(res.Pruned), "count")
	rep.set("core.neighbor_ops", float64(res.NeighborOps), "count")
	rep.set("core.regions", float64(len(res.Regions)), "count")
	rep.set("core.parallel_s", parMS/1e3, "s")
	rep.set("core.parallel_speedup", seqMS/parMS, "x")
	rep.printf("pattern.count + core.traverse = %.1f%% of the traced op", 100*(count+traverse)/opMS)
}
