package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/serve"
)

const (
	// pollEvery is how often outstanding jobs are polled, over the same
	// connections the requests use.
	pollEvery = 20 * time.Millisecond
	// nominalShare of the measured time runs at the nominal rate; the
	// rest is the ladder, one equal step per rate.
	nominalShare = 0.5
	ladderFactor = 1.1
	// A repeat copies one of the last repeatPool fresh identifies that
	// was due at least repeatGap earlier: finished by then, and still in
	// the server's 128-entry response cache.
	repeatPool = 100
	repeatGap  = 100 * time.Millisecond
	// residentDatasets is how many COMPAS datasets identify jobs target.
	residentDatasets = 4
)

// Request kinds in the serve-mixed mix: 70% identify with fresh
// parameters, 20% verbatim repeats of an earlier identify, 10% uploads.
const (
	kindIdentify = iota
	kindRepeat
	kindUpload
)

type serveItem struct {
	due    time.Duration // from the phase start
	tenant string
	kind   int
	// Identify parameters; a repeat copies its original's.
	ds      int
	tauC    float64
	minSize int
	orig    int // a repeat's original, an index into the phase's items
	upload  int // which upload this is, counted over the whole run
}

type servePhase struct {
	name  string
	rate  float64
	dur   time.Duration
	items []serveItem
}

// planPhases draws every phase's arrivals from the seed: exponential
// gaps at the phase rate, tenants 3:1, and the request mix above.
func planPhases(rc *runCtx) []servePhase {
	nominal := time.Duration(float64(rc.measure) * nominalShare)
	step := (rc.measure - nominal) / time.Duration(rc.sc.ladderSteps)
	phases := []servePhase{{name: "nominal", rate: rc.sc.nominalRate, dur: nominal}}
	uploads := 0
	for k := 0; k < rc.sc.ladderSteps; k++ {
		phases = append(phases, servePhase{name: fmt.Sprint(k), rate: rc.sc.ladderBase * math.Pow(ladderFactor, float64(k)), dur: step})
	}
	for p := range phases {
		ph := &phases[p]
		r := rand.New(rand.NewPCG(uint64(rc.seed), uint64(p)))
		for t := r.ExpFloat64() / ph.rate; t < ph.dur.Seconds(); t += r.ExpFloat64() / ph.rate {
			it := serveItem{due: time.Duration(t * float64(time.Second)), tenant: "team-a", kind: kindIdentify}
			if r.Float64() >= 0.75 {
				it.tenant = "team-b"
			}
			switch u := r.Float64(); {
			case u >= 0.9:
				it.kind, it.upload = kindUpload, uploads
				uploads++
			case u >= 0.7:
				var cands []int
				for i, fresh := len(ph.items)-1, 0; i >= 0 && fresh < repeatPool; i-- {
					if ph.items[i].kind != kindIdentify {
						continue
					}
					fresh++
					if it.due-ph.items[i].due >= repeatGap {
						cands = append(cands, i)
					}
				}
				if len(cands) > 0 {
					o := cands[r.IntN(len(cands))]
					it.kind, it.orig = kindRepeat, o
					it.ds, it.tauC, it.minSize = ph.items[o].ds, ph.items[o].tauC, ph.items[o].minSize
					break
				}
				fallthrough
			default:
				it.ds, it.tauC, it.minSize = r.IntN(residentDatasets), 0.05+0.2*r.Float64(), 20+5*r.IntN(4)
			}
			ph.items = append(ph.items, it)
		}
	}
	return phases
}

// uploadPayload is the CSV serve-mixed uploads during the run. Upload k
// sends its rows rotated to start at row k, so each upload is a fresh
// dataset (a new content-addressed ID to decode, spill and admit) of
// the same size, without generating one per upload.
type uploadPayload struct {
	header, rows []byte
	starts       []int // byte offset of each row in rows
}

func newUploadPayload(csv []byte) uploadPayload {
	nl := bytes.IndexByte(csv, '\n') + 1
	p := uploadPayload{header: csv[:nl], rows: csv[nl:]}
	for off := 0; off < len(p.rows); {
		p.starts = append(p.starts, off)
		i := bytes.IndexByte(p.rows[off:], '\n')
		if i < 0 {
			break
		}
		off += i + 1
	}
	return p
}

func (p uploadPayload) reader(k int) io.Reader {
	off := p.starts[k%len(p.starts)]
	return io.MultiReader(bytes.NewReader(p.header), bytes.NewReader(p.rows[off:]), bytes.NewReader(p.rows[:off]))
}

// serveInst is one serve-mixed set-up: a booted server with the
// resident datasets uploaded.
type serveInst struct {
	dir    string
	srv    *server
	ids    []string // resident dataset IDs
	csvs   [][]byte // their upload bytes
	upload uploadPayload
	phases []servePhase
}

func setupServe(ctx context.Context, rc *runCtx) (*serveInst, error) {
	inst := &serveInst{phases: planPhases(rc)}
	for i := 0; i < residentDatasets; i++ {
		b, err := compasCSV(rc.sc.compasRows, rc.seed*100+int64(i))
		if err != nil {
			return nil, err
		}
		inst.csvs = append(inst.csvs, b)
	}
	b, err := compasCSV(rc.sc.uploadRows, rc.seed*100+residentDatasets)
	if err != nil {
		return nil, err
	}
	inst.upload = newUploadPayload(b)
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return nil, err
	}
	inst.dir = dir
	if inst.srv, err = startServer(ctx, dir); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	cl := inst.srv.client("team-a")
	for i, b := range inst.csvs {
		info, err := cl.UploadDataset(ctx, bytes.NewReader(b), fmt.Sprintf("compas-%d", i), compasTarget, compasProtected)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("upload resident dataset: %w", err), inst.close(ctx))
		}
		inst.ids = append(inst.ids, info.ID)
	}
	return inst, nil
}

func (s *serveInst) close(ctx context.Context) error {
	return errors.Join(s.srv.stop(ctx), os.RemoveAll(s.dir))
}

// serveOutcome is what happened to one request.
type serveOutcome struct {
	due, sent time.Time
	submitMS  float64
	id        string
	st        serve.JobStatus
	// done is the job's FinishedAt, or when an upload was answered.
	done    time.Time
	refused bool // 429
	err     error
	span    int
}

// latencyMS is the request's latency from when it was due; a refused
// or failed request never meets any limit.
func (o *serveOutcome) latencyMS() float64 {
	if o.err != nil || o.done.IsZero() || (o.id != "" && o.st.State != serve.StateDone) {
		return math.Inf(1)
	}
	return float64(o.done.Sub(o.due).Nanoseconds()) / 1e6
}

func (o *serveOutcome) cacheHit() bool {
	return o.id != "" && o.st.State == serve.StateDone && o.st.StartedAt == nil
}

// runPhase plays one phase open-loop: a dispatcher hands each request
// at its due time to one of GOMAXPROCS senders, and a poller checks
// outstanding jobs every pollEvery. It returns once every job of the
// phase is terminal, so phases start with an empty queue. It returns
// when the phase started and each request's outcome.
func (s *serveInst) runPhase(ctx context.Context, tr *tracer, opBase int, ph *servePhase) (time.Time, []serveOutcome) {
	out := make([]serveOutcome, len(ph.items))
	var mu sync.Mutex
	pending := map[int]bool{}
	work := make(chan int)
	dispatched := make(chan struct{})
	var senders, poller sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range work {
				t := tr
				if tr != nil && (opBase+i)%2 == 0 {
					t = nil // every other request is untraced, for the overhead
				}
				if s.send(ctx, t, opBase+i, &ph.items[i], &out[i]) {
					mu.Lock()
					pending[i] = true
					mu.Unlock()
				}
			}
		}()
	}
	poller.Add(1)
	go func() {
		defer poller.Done()
		s.poll(ctx, &mu, pending, out, dispatched)
	}()

	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i := range ph.items {
		out[i].due = start.Add(ph.items[i].due)
		if d := time.Until(out[i].due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			}
		}
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	senders.Wait()
	close(dispatched)
	poller.Wait()

	// The server's timestamps place each job's queue wait and run.
	for i := range out {
		o := &out[i]
		if o.span < 0 || o.st.FinishedAt == nil {
			continue
		}
		if o.st.StartedAt != nil {
			tr.add(opBase+i, o.span, "serve.queue_wait", o.st.EnqueuedAt, *o.st.StartedAt)
			tr.add(opBase+i, o.span, "serve.run", *o.st.StartedAt, *o.st.FinishedAt)
		}
		tr.endAt(o.span, *o.st.FinishedAt)
	}
	return start, out
}

// send issues one request and reports whether it left a job to poll.
func (s *serveInst) send(ctx context.Context, tr *tracer, op int, it *serveItem, o *serveOutcome) bool {
	o.sent = time.Now()
	o.span = tr.add(op, -1, "bench.op", o.due, o.due)
	tr.add(op, o.span, "bench.lag", o.due, o.sent)
	cl := s.srv.client(it.tenant)
	if it.kind == kindUpload {
		sp := tr.begin(op, o.span, "serve.upload")
		_, o.err = cl.UploadDataset(ctx, s.upload.reader(it.upload), fmt.Sprintf("upload-%d", it.upload), compasTarget, compasProtected)
		tr.end(sp)
		o.done = time.Now()
		o.submitMS = float64(o.done.Sub(o.sent).Nanoseconds()) / 1e6
		o.refused = serve.StatusOf(o.err) == 429
		tr.endAt(o.span, o.done)
		return false
	}
	sp := tr.begin(op, o.span, "serve.submit")
	st, err := cl.SubmitJob(ctx, s.request(it))
	tr.end(sp)
	o.submitMS = msSince(o.sent)
	if err != nil {
		o.err, o.refused = err, serve.StatusOf(err) == 429
		tr.endAt(o.span, time.Now())
		return false
	}
	o.id = st.ID
	if !st.State.Terminal() {
		return true
	}
	o.st, o.done = st, *st.FinishedAt
	return false
}

func (s *serveInst) request(it *serveItem) serve.JobRequest {
	return serve.JobRequest{Kind: "identify", DatasetID: s.ids[it.ds], TauC: it.tauC, T: 1, MinSize: it.minSize}
}

// poll fetches every outstanding job's status each pollEvery until the
// phase is dispatched and nothing is outstanding.
func (s *serveInst) poll(ctx context.Context, mu *sync.Mutex, pending map[int]bool, out []serveOutcome, dispatched <-chan struct{}) {
	cl := s.srv.client("")
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		mu.Lock()
		ids := make([]int, 0, len(pending))
		for i := range pending {
			ids = append(ids, i)
		}
		mu.Unlock()
		for _, i := range ids {
			st, err := cl.Job(ctx, out[i].id)
			if err == nil && !st.State.Terminal() {
				continue
			}
			mu.Lock()
			out[i].st, out[i].err = st, err
			if err == nil {
				out[i].done = *st.FinishedAt
			}
			delete(pending, i)
			mu.Unlock()
		}
		select {
		case <-dispatched:
			mu.Lock()
			n := len(pending)
			mu.Unlock()
			if n == 0 {
				return
			}
		default:
		}
	}
}

// runServeMixed measures the server under open-loop traffic: a phase at
// the nominal rate gives op_p50_ms and op_tail_ms, then a ladder of
// rates ×1.1 apart gives the max rate, the highest whose p90 meets the
// latency limit with no refusals and a bounded backlog.
func runServeMixed(ctx context.Context, rc *runCtx) (*report, error) {
	rep := newReport()
	inst, setupS, err := setupMedian(ctx, rc.sc, func(ctx context.Context) (*serveInst, error) {
		return setupServe(ctx, rc)
	}, func(s *serveInst) { _ = s.close(ctx) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, "s")
	res, runErr := inst.measure(ctx, rc, rep)
	err = errors.Join(runErr, inst.check(ctx, rep, res))
	return rep, errors.Join(err, inst.close(ctx))
}

// serveResults holds every phase's outcomes.
type serveResults struct {
	outcomes [][]serveOutcome
	steps    []ladderStep
	mem      memDelta
	journal  [2]durable.StoreStats // before and after the phases
}

func (s *serveInst) measure(ctx context.Context, rc *runCtx, rep *report) (*serveResults, error) {
	res := &serveResults{}
	res.journal[0] = s.srv.store.Stats(ctx)
	mem := markMem()
	op := 0
	for p := range s.phases {
		ph := &s.phases[p]
		start, outs := s.runPhase(ctx, rc.tr, op, ph)
		res.outcomes = append(res.outcomes, outs)
		// The server is idle between phases; collect the phase's garbage
		// first so it does not slow the samples.
		runtime.GC()
		for i := 0; i < 5; i++ {
			rep.host = append(rep.host, hostRef())
		}
		if p > 0 {
			res.steps = append(res.steps, stepStats(outs, start.Add(ph.dur), rc.sc.latencyLimitMS))
		}
		op += len(ph.items)
	}
	res.mem = mem.since()
	res.journal[1] = s.srv.store.Stats(ctx)
	if err := ctx.Err(); err != nil {
		return res, err
	}

	nominal := res.outcomes[0]
	var lat []float64
	for i := range nominal {
		o := &nominal[i]
		rep.attempted++
		if math.IsInf(o.latencyMS(), 1) {
			rep.failed++
			if o.err != nil && !o.refused {
				rep.printf("request %d failed: %v", i, o.err)
			}
		}
		lat = append(lat, o.latencyMS())
	}
	if rc.tr == nil {
		rep.latency(lat)
	}
	best := -1
	for k, ph := range s.phases[1:] {
		st := res.steps[k]
		verdict := "misses the limit"
		if st.ok {
			best, verdict = k, "meets the limit"
		}
		rep.printf("ladder step %d: %6.1f jobs/s  p50 %7.2f ms  p90 %7.2f ms  429s %d  backlog %d  %s",
			k, ph.rate, st.p50, st.p90, st.refused, st.backlog, verdict)
		if rc.tr != nil {
			rep.set("serve.ladder_p50_ms."+ph.name, st.acceptedP50, "ms")
			rep.set("serve.ladder_p90_ms."+ph.name, st.acceptedP90, "ms")
			rep.set("serve.backlog_end."+ph.name, float64(st.backlog), "count")
		}
	}
	maxRate := 0.0
	if best >= 0 {
		maxRate = s.phases[best+1].rate
	}
	// Between the best step and the next one the p90 crosses the limit;
	// interpolating where it does keeps the rate from jumping by whole
	// steps. A next step that failed on refusals or backlog alone ends
	// the ladder at the best step.
	if best >= 0 && best+1 < len(res.steps) {
		lo, hi := res.steps[best].p90, res.steps[best+1].p90
		if hi > rc.sc.latencyLimitMS && !math.IsInf(hi, 1) {
			maxRate *= math.Pow(ladderFactor, (rc.sc.latencyLimitMS-lo)/(hi-lo))
		}
	}
	rep.printf("max rate %.1f jobs/s: the highest meeting the %.0f ms p90 limit with no 429s and a bounded backlog", maxRate, rc.sc.latencyLimitMS)
	if rc.tr == nil {
		rep.peakRSS()
		return res, nil
	}
	rep.set("serve.max_rate_per_s", maxRate, "1/s")
	return res, s.reportLayers(ctx, rc, rep, res)
}

type ladderStep struct {
	// p50 and p90 count a refused request as missing every limit, so
	// p90 is infinite when more than a tenth are refused;
	// acceptedP50/P90 are over the accepted requests alone.
	p50, p90, acceptedP50, acceptedP90 float64
	refused, backlog                   int
	ok                                 bool // meets the limit
}

// stepStats summarises one ladder step that ran from start to end. The
// backlog is every accepted request of the step unfinished at its end.
func stepStats(out []serveOutcome, end time.Time, limitMS float64) ladderStep {
	var st ladderStep
	var all, accepted []float64
	for i := range out {
		o := &out[i]
		ms := o.latencyMS()
		all = append(all, ms)
		if !math.IsInf(ms, 1) {
			accepted = append(accepted, ms)
		}
		switch {
		case o.refused:
			st.refused++
		case o.done.IsZero() || o.done.After(end):
			st.backlog++
		}
	}
	s, a := sorted(all), sorted(accepted)
	st.p50, st.p90 = quantile(s, 0.5), quantile(s, 0.9)
	st.acceptedP50, st.acceptedP90 = quantile(a, 0.5), quantile(a, 0.9)
	st.ok = st.p90 <= limitMS && st.refused == 0 && st.backlog <= 2*runtime.GOMAXPROCS(0)
	return st
}

// check verifies the outputs: no job lost or duplicated, every repeat
// byte-identical to its original, and one identify per resident dataset
// equal to core.IdentifyOptimized on the same bytes.
func (s *serveInst) check(ctx context.Context, rep *report, res *serveResults) error {
	cl := s.srv.client("")
	accepted := map[string]bool{}
	repeats, hits := 0, 0
	for p, outs := range res.outcomes {
		for i := range outs {
			o := &outs[i]
			if o.id == "" {
				continue
			}
			if accepted[o.id] {
				return fmt.Errorf("serve-mixed: job %s returned for two submissions", o.id)
			}
			accepted[o.id] = true
			if o.st.State != serve.StateDone {
				return fmt.Errorf("serve-mixed: job %s ended %s: %s", o.id, o.st.State, o.st.Error)
			}
			it := &s.phases[p].items[i]
			if o.cacheHit() && it.kind != kindRepeat {
				return fmt.Errorf("serve-mixed: fresh identify %s was served from the cache", o.id)
			}
			if it.kind != kindRepeat || outs[it.orig].id == "" {
				continue
			}
			repeats++
			if o.cacheHit() {
				hits++
			}
			var a, b json.RawMessage
			if err := errors.Join(cl.Result(ctx, o.id, &a), cl.Result(ctx, outs[it.orig].id, &b)); err != nil {
				return fmt.Errorf("serve-mixed: fetch repeat results: %w", err)
			}
			if !bytes.Equal(a, b) {
				return fmt.Errorf("serve-mixed: repeat %s differs from its original %s", o.id, outs[it.orig].id)
			}
		}
	}
	_, listed, err := jobsDigest(s.srv.srv.Handler())
	if err != nil {
		return err
	}
	if listed != len(accepted) {
		return fmt.Errorf("serve-mixed: server lists %d jobs, %d were accepted", listed, len(accepted))
	}
	rep.printf("%d jobs accepted, none lost or duplicated; %d repeats byte-identical to their originals (%d cache hits)", len(accepted), repeats, hits)

	// One fresh identify per resident dataset against the library.
	checked := map[int]bool{}
	for i, it := range s.phases[0].items {
		o := &res.outcomes[0][i]
		if it.kind != kindIdentify || checked[it.ds] || o.id == "" {
			continue
		}
		var got serve.IdentifyResult
		if err := cl.Result(ctx, o.id, &got); err != nil {
			return fmt.Errorf("serve-mixed: fetch %s: %w", o.id, err)
		}
		want, err := localIdentify(s.csvs[it.ds], core.Config{TauC: it.tauC, T: 1, MinSize: it.minSize})
		if err != nil {
			return err
		}
		if !equalJSON(got, want) {
			return fmt.Errorf("serve-mixed: job %s IBS differs from core.IdentifyOptimized", o.id)
		}
		checked[it.ds] = true
	}
	rep.printf("%d served identify results equal core.IdentifyOptimized", len(checked))
	return nil
}

// localIdentify decodes the uploaded bytes and identifies in-process,
// rendered the way the server renders an identify result.
func localIdentify(csv []byte, cfg core.Config) (*serve.IdentifyResult, error) {
	d, err := dataset.ReadCSV(bytes.NewReader(csv), compasTarget, compasProtected)
	if err != nil {
		return nil, err
	}
	res, err := core.IdentifyOptimized(d, cfg)
	if err != nil {
		return nil, err
	}
	out := &serve.IdentifyResult{TauC: cfg.TauC, T: cfg.T, MinSize: cfg.MinSize, Scope: cfg.Scope.String(),
		Explored: res.Explored, Pruned: res.Pruned, Regions: []serve.RegionJSON{}}
	for _, r := range res.Regions {
		out.Regions = append(out.Regions, serve.RegionJSON{
			Pattern: res.Space.String(r.Pattern), N: r.Counts.N, Pos: r.Counts.Pos, Neg: r.Counts.Neg(),
			Ratio: r.Ratio, NeighborRatio: r.NeighborRatio, Gap: r.Gap(),
		})
	}
	return out, nil
}

func equalJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// reportLayers records serve-mixed's per-layer metrics.
func (s *serveInst) reportLayers(ctx context.Context, rc *runCtx, rep *report, res *serveResults) error {
	var submit, queue, run, upload, lag, traced, untraced []float64
	rejected, hits, jobs := 0, 0, 0 // in the nominal phase
	ops, tracedOps, allJobs := 0, 0, 0
	for p, outs := range res.outcomes {
		ops += len(outs)
		for i := range outs {
			o := &outs[i]
			lag = append(lag, float64(o.sent.Sub(o.due).Nanoseconds())/1e6)
			if o.span >= 0 {
				tracedOps++
			}
			if o.id != "" {
				allJobs++
			}
			if p > 0 {
				continue
			}
			if o.refused {
				rejected++
			}
			if o.span >= 0 {
				traced = append(traced, o.latencyMS())
			} else {
				untraced = append(untraced, o.latencyMS())
			}
			if s.phases[p].items[i].kind == kindUpload {
				upload = append(upload, o.submitMS)
				continue
			}
			submit = append(submit, o.submitMS)
			if o.id == "" {
				continue
			}
			jobs++
			if o.cacheHit() {
				hits++
			} else if o.st.StartedAt != nil && o.st.FinishedAt != nil {
				queue = append(queue, float64(o.st.StartedAt.Sub(o.st.EnqueuedAt).Nanoseconds())/1e6)
				run = append(run, float64(o.st.FinishedAt.Sub(*o.st.StartedAt).Nanoseconds())/1e6)
			}
		}
	}
	pct := func(xs []float64, q float64) float64 { return quantile(sorted(xs), q) }
	rep.set("serve.submit_rtt_ms.p50", pct(submit, 0.5), "ms")
	rep.set("serve.submit_rtt_ms.p90", pct(submit, 0.9), "ms")
	rep.set("serve.queue_wait_ms.p50", pct(queue, 0.5), "ms")
	rep.set("serve.queue_wait_ms.p90", pct(queue, 0.9), "ms")
	rep.set("serve.run_ms.p50", pct(run, 0.5), "ms")
	rep.set("serve.run_ms.p90", pct(run, 0.9), "ms")
	rep.set("serve.upload_rtt_ms.p50", pct(upload, 0.5), "ms")
	rep.set("serve.cache_hit_ratio", float64(hits)/float64(max(jobs, 1)), "ratio")
	rep.set("serve.rejected", float64(rejected), "count")
	rep.set("serve.generator_lag_ms.p99", pct(lag, 0.99), "ms")
	rep.set("serve.fair_share_dev", s.fairShareDev(res), "ratio")

	j0, j1 := res.journal[0], res.journal[1]
	rep.set("durable.journal_bytes_per_job", float64(j1.JournalBytes-j0.JournalBytes)/float64(max(allJobs, 1)), "B")
	rep.set("durable.journal_records_per_job", float64(j1.JournalRecords-j0.JournalRecords)/float64(max(allJobs, 1)), "count")
	fsync, err := appendFsyncProbe(ctx)
	if err != nil {
		return err
	}
	rep.set("durable.append_fsync_us.p50", fsync, "us")
	if err := readCSVProbe(rep, s.csvs); err != nil {
		return err
	}
	rep.runtimePerOp("serve-mixed", res.mem, ops)
	rep.overhead("serve-mixed", untraced, traced)
	rep.printSelfTimes(rc.tr, tracedOps)
	return nil
}

// fairShareDev is how far team-a's share of the jobs run during the
// saturated ladder steps, those that miss the limit, strays from its
// 3/4 weight share.
func (s *serveInst) fairShareDev(res *serveResults) float64 {
	a, n := 0, 0
	for k, ph := range s.phases[1:] {
		outs := res.outcomes[k+1]
		if res.steps[k].ok {
			continue
		}
		for i := range outs {
			if outs[i].st.StartedAt == nil {
				continue
			}
			n++
			if ph.items[i].tenant == "team-a" {
				a++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Abs(float64(a)/float64(n) - 0.75)
}

// appendFsyncProbe times journal appends with fsync on, on a scratch
// dir, and returns the median in µs.
func appendFsyncProbe(ctx context.Context) (float64, error) {
	dir, err := os.MkdirTemp("", "bench-fsync-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := durable.OpenJournal(ctx, dir+"/journal.wal", true)
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := j.Append(ctx, durable.Record{Type: durable.RecState, JobID: fmt.Sprintf("job-%06d", i), State: durable.StateDone}); err != nil {
			return 0, errors.Join(err, j.Close())
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), j.Close()
}

// readCSVProbe times dataset.ReadCSV on the resident datasets' bytes.
func readCSVProbe(rep *report, csvs [][]byte) error {
	var secs []float64
	bytesRead := 0
	for r := 0; r < 3; r++ {
		for _, b := range csvs {
			t0 := time.Now()
			if _, err := dataset.ReadCSV(bytes.NewReader(b), compasTarget, compasProtected); err != nil {
				return err
			}
			secs = append(secs, time.Since(t0).Seconds())
			bytesRead += len(b)
		}
	}
	med := median(secs)
	rep.set("dataset.read_csv_s", med, "s")
	rep.set("dataset.read_csv_mb_per_s", float64(bytesRead)/float64(len(secs))/(1<<20)/med, "MiB/s")
	return nil
}
