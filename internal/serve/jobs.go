package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Engine errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull is returned by Submit when the bounded queue has no
	// room — the server's backpressure signal (429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrShuttingDown is returned by Submit once Shutdown has begun
	// (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrJobNotFound is returned for an unknown job ID (404).
	ErrJobNotFound = errors.New("serve: job not found")
	// ErrJobNotDone is returned when fetching the result of a job that
	// has not reached a terminal state (409).
	ErrJobNotDone = errors.New("serve: job not finished")
	// ErrResultGone is returned when fetching the result of a job that
	// finished before a restart: the journal proves the outcome but
	// result payloads are not retained across restarts (410).
	ErrResultGone = errors.New("serve: job result not retained across restart")
	// ErrNoStealable is returned by StealQueued when nothing is queued
	// for a remote node to take.
	ErrNoStealable = errors.New("serve: no stealable job queued")
	// ErrStaleAttempt is returned by CompleteStolen when the reported
	// attempt is not the job's current one: the steal timed out and the
	// job was re-queued (or re-run) since, so the late result must not
	// finish the newer incarnation.
	ErrStaleAttempt = errors.New("serve: stale steal attempt")
)

// job is the engine's internal record for one submitted job. The
// mutex guards the mutable lifecycle fields; the immutable identity
// fields (id, req) are safe to read bare.
type job struct {
	id  string
	req JobRequest
	// tenant is the canonical tenant the job was accounted under
	// (written once by fairQueue.push / the cache fast path before the
	// job is observable; the fair queue's mutex publishes it).
	tenant string

	mu sync.Mutex
	// rec is the job as durable.Reduce rebuilds it from the journal:
	// state, error and attempt. commit is the only way it changes,
	// apart from the local-only ends (endLocal) and a recovered job
	// re-entering the queue (restoreJob).
	rec        durable.JobRecord
	result     any
	cancel     context.CancelFunc // set while running
	cancelWant bool               // Cancel called; disambiguates ctx.Canceled
	enqueued   time.Time
	started    time.Time
	finished   time.Time

	// metrics is the job's private registry: the pipeline's counters
	// accumulate here and GET /jobs/{id} snapshots them as progress.
	metrics *obs.Registry
	// tracer records the job's span tree, served by /jobs/{id}/trace.
	tracer *obs.Tracer
	// release returns the dataset reference taken at submission.
	release func()
	// done is closed on entry to any terminal state.
	done chan struct{}
	// admitted is closed once the job's submission record is journaled
	// (or its journaling definitively failed). Workers wait on it before
	// touching a dequeued job, so a "running" record can never precede
	// the job's "submit" record in the journal.
	admitted chan struct{}

	// resume holds the identify checkpoints recovered from the journal,
	// seeded into the traversal when the job re-runs.
	resume []core.LevelSnapshot
}

// status snapshots the job's public view.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Kind:       j.req.Kind,
		DatasetID:  j.req.DatasetID,
		Tenant:     j.tenant,
		State:      j.rec.State,
		Error:      j.rec.Error,
		Attempts:   j.rec.Attempt,
		EnqueuedAt: j.enqueued,
	}
	if st.State == "" {
		st.State = StateQueued // its submission record is being journaled
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if counters := j.metrics.Snapshot().Counters; len(counters) > 0 {
		st.Progress = counters
	}
	return st
}

// runnerFunc executes one job's pipeline work under its context.
type runnerFunc func(ctx context.Context, j *job) (any, error)

// engine is the bounded worker pool behind POST /jobs. Jobs flow
// through the multi-tenant fair queue (per-tenant bounded FIFOs,
// token-bucket quotas, deficit-round-robin dispatch — see fairq.go); a
// fixed set of worker goroutines drains it. Submission never blocks: a
// full tenant queue is an immediate ErrQueueFull, an empty tenant
// bucket is ErrRateLimited, both carrying a derived Retry-After.
type engine struct {
	mu         sync.Mutex
	jobs       map[string]*job
	order      []string // submission order, for GET /jobs
	idem       map[string]*job
	idemOrder  []string // idem keys in insertion order, for bounded eviction
	queue      *fairQueue
	cache      *respCache // done-result replay cache; nil = disabled
	closed     bool
	seq        int
	seqRunning int // currently-running job count, behind mu
	workers    int
	wg         sync.WaitGroup
	abort      context.CancelFunc // cancels the workers' base context, hard-stopping running jobs

	jobTimeout time.Duration // per-job deadline, and the clamp for request-supplied ones
	run        runnerFunc
	metrics    *obs.Registry // server-level registry
	logger     *obs.Logger

	// node names this engine's fleet member; it prefixes the
	// deterministic per-job trace IDs (node/job-NNNNNN).
	node string
	// slowJob, when positive, logs the span timings of any job whose
	// run exceeds it.
	slowJob time.Duration

	// journal, when non-nil, is the durable job log: every lifecycle
	// transition is appended before it is acknowledged. Nil is the
	// in-memory mode — every journaling helper returns immediately.
	journal *durable.Journal
	// maxAttempts caps crash-recovery re-queues of one job.
	maxAttempts int
	// maxIdemKeys bounds the idem table.
	maxIdemKeys int
}

// newEngine builds the engine without starting its worker pool;
// callers attach durability (journal, recovered jobs) and then call
// start. Submissions before start simply wait in the queue.
func newEngine(workers, queueDepth int, jobTimeout time.Duration, run runnerFunc, m *obs.Registry, lg *obs.Logger) *engine {
	if workers <= 0 {
		workers = 4
	}
	if queueDepth <= 0 {
		queueDepth = 16
	}
	return &engine{
		jobs:       map[string]*job{},
		idem:       map[string]*job{},
		queue:      newFairQueue(queueDepth, TenantConfig{Weight: 1}, nil),
		workers:    workers,
		jobTimeout: jobTimeout,
		run:        run,
		metrics:    m,
		logger:     lg,
	}
}

// start launches the worker pool. The base context is cancelled by
// abort to hard-stop running jobs. It is handed to each worker
// goroutine as a parameter — never stored on the engine — so
// cancellation stays attached to the call tree (ctxfirst contract).
func (e *engine) start() {
	baseCtx, abort := context.WithCancel(context.Background())
	e.abort = abort
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker(baseCtx)
	}
}

// journalObs routes journal-append observability to the server-level
// registry and logger while keeping the caller's span (so injected
// faults land on the job's trace). A background ctx is fine: appends
// are never skipped on cancellation.
func (e *engine) journalObs(ctx context.Context) context.Context {
	return obs.WithLogger(obs.WithMetrics(ctx, e.metrics), e.logger)
}

// errNoChange reports a transition that left the job as it was: the
// caller declined it, or durable's step rejected the record (the job
// is already terminal).
var errNoChange = errors.New("serve: job state unchanged")

// transition decides, from the job's current record, the journal
// record that moves it on. It runs under j.mu; returning errNoChange
// (or any other error) leaves the job's record as it is.
type transition func(cur durable.JobRecord) (durable.Record, error)

// record is the journal record of j entering st.
func (j *job) record(st State, msg string, attempt int) durable.Record {
	return durable.Record{Type: durable.RecState, JobID: j.id, State: st, Error: msg, Attempt: attempt}
}

// to is the transition into st at the job's current attempt. It also
// sets the job's result to res, which is read only once the job is done.
func (j *job) to(st State, msg string, res any) transition {
	return func(cur durable.JobRecord) (durable.Record, error) {
		j.result = res
		return j.record(st, msg, cur.Attempt), nil
	}
}

// commit is the engine's one job state transition. With j.mu held it
// asks next for the record, checks that durable's step accepts it,
// appends it to the journal, and applies it through that same step —
// so the engine's table is what durable.Reduce makes of the journal,
// and no transition is observable before it is durable. A record that
// ends the job runs the terminal side effects once (finishLocked).
// commit returns errNoChange or next's error untouched; an append
// failure (counted in serve.journal_errors) leaves the job as it was
// and each caller applies its own policy. Without a journal (the
// in-memory mode) the record is applied and nothing is written.
func (e *engine) commit(ctx context.Context, j *job, next transition) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, err := next(j.rec)
	if err != nil {
		return err
	}
	after := j.rec
	if !after.Apply(rec) {
		return errNoChange
	}
	if e.journal != nil {
		//lint:allow heldcall j.mu covers check + append + apply, so this job's journal order is the order its transitions took effect and no other transition can slip between check and append
		if err := e.journal.Append(e.journalObs(ctx), rec); err != nil {
			e.metrics.Counter("serve.journal_errors").Inc()
			return err
		}
	}
	j.rec = after
	if after.State.Terminal() {
		e.finishLocked(j, rec.Node)
	}
	return nil
}

// endLocal ends a job without a journal record, for the cases where
// none can be written: a submission that could not be journaled (the
// job is poisoned, never acknowledged), a start that could not be
// journaled (the job must not run), a terminal record the journal
// refused (the failure is logged and the job still ends, so its
// waiters and dataset reference are released), and demote (the journal
// is fenced). A job already terminal is left alone. Caller holds j.mu.
func (e *engine) endLocal(j *job, st State, msg string) {
	if j.rec.State.Terminal() {
		return
	}
	j.rec.State, j.rec.Error = st, msg
	e.finishLocked(j, "")
}

// finish journals j's outcome, with res as a done job's result, and
// returns the state it ended in ("" if the job had already ended). A
// done the journal refuses is not acknowledged as done — recovery would
// re-run the job and a client could see it finish twice — so it
// degrades to failed with degrade plus the journal error; an outcome
// the journal refuses outright is logged and the job ends locally.
func (e *engine) finish(ctx context.Context, j *job, final State, msg string, res any, degrade string) State {
	err := e.commit(ctx, j, j.to(final, msg, res))
	if err != nil && !errors.Is(err, errNoChange) && final == StateDone {
		final, msg = StateFailed, degrade+err.Error()
		err = e.commit(ctx, j, j.to(final, msg, nil))
	}
	switch {
	case err == nil:
		return final
	case errors.Is(err, errNoChange):
		return ""
	}
	e.logger.Error("journal append failed", "job", j.id, "err", err)
	j.mu.Lock()
	e.endLocal(j, final, msg)
	j.mu.Unlock()
	return final
}

// finishLocked runs the side effects of the terminal state j.rec has
// just entered, exactly once: finish timestamp, replay-cache fill for a
// job that ran to done, dataset release, the done channel, the
// serve.jobs_<state> counter, tenant accounting and the log line. node
// names the stealer that reported the outcome ("" for local work).
// Called only by commit and endLocal. Caller holds j.mu.
func (e *engine) finishLocked(j *job, node string) {
	st := j.rec.State
	j.finished = time.Now() //lint:allow determinism job lifecycle timestamp is reporting metadata, not a pipeline input
	if st == StateDone && !j.started.IsZero() {
		// Fill the replay cache before done closes, so a client that
		// waits for this job and resubmits the identical request always
		// hits. A cache-hit job never started: its result is the cache's.
		e.cacheFill(j.req, j.result)
	}
	if j.release != nil {
		j.release()
	}
	close(j.done)
	e.metrics.Counter("serve.jobs_" + string(st)).Inc()
	e.accountFinish(j.tenant, st)
	kv := []any{"job", j.id}
	if node != "" {
		kv = append(kv, "node", node)
	}
	if j.rec.Error != "" {
		kv = append(kv, "err", j.rec.Error)
	}
	if st == StateFailed {
		e.logger.Error("job failed", kv...)
		return
	}
	e.logger.Info("job "+string(st), kv...)
}

// admit journals j's submission record. An unjournaled admission
// poisons the job — ended locally, so the worker that dequeues it skips
// it — and releases its idempotency claim, so a retry is not deduped
// onto a job that was never durably admitted.
func (e *engine) admit(ctx context.Context, j *job) error {
	raw, err := json.Marshal(j.req)
	if err == nil {
		err = e.commit(ctx, j, func(durable.JobRecord) (durable.Record, error) {
			return durable.Record{Type: durable.RecSubmit, JobID: j.id, IdemKey: j.req.IdempotencyKey, Request: raw}, nil
		})
	}
	j.mu.Lock()
	if err == nil {
		j.rec.Request = nil // j.req holds it decoded; keep one copy
		j.mu.Unlock()
		return nil
	}
	e.endLocal(j, StateCancelled, "submission not journaled: "+err.Error())
	j.mu.Unlock()
	close(j.admitted)
	if key := j.req.IdempotencyKey; key != "" {
		e.mu.Lock()
		e.idemDeleteLocked(key)
		e.mu.Unlock()
	}
	return fmt.Errorf("serve: journal submission: %w", err)
}

// journalCheckpoint appends one completed identify level for the job.
// No-op without a journal.
func (e *engine) journalCheckpoint(ctx context.Context, id string, snap core.LevelSnapshot) error {
	if e.journal == nil {
		return nil
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := e.journal.Append(e.journalObs(ctx), durable.Record{
		Type:       durable.RecCheckpoint,
		JobID:      id,
		Level:      snap.Level,
		Checkpoint: raw,
	}); err != nil {
		return err
	}
	e.metrics.Counter("serve.checkpoints_journaled").Inc()
	return nil
}

// idemInsertLocked records key → j in the dedup table and evicts past
// the cap. Caller holds e.mu.
func (e *engine) idemInsertLocked(key string, j *job) {
	if _, exists := e.idem[key]; !exists {
		e.idemOrder = append(e.idemOrder, key)
	}
	e.idem[key] = j
	e.evictIdemLocked()
}

// idemDeleteLocked releases key from the dedup table and its insertion
// order — the two must move together, or keys dropped from the table
// (the Submit journal-failure path) accumulate in idemOrder until the
// table next overflows its cap. Caller holds e.mu.
func (e *engine) idemDeleteLocked(key string) {
	delete(e.idem, key)
	for i, k := range e.idemOrder {
		if k == key {
			e.idemOrder = append(e.idemOrder[:i], e.idemOrder[i+1:]...)
			return
		}
	}
}

// evictIdemLocked bounds the dedup table: while it exceeds the cap,
// the oldest keys whose jobs are terminal — their outcome already
// journaled, since every terminal transition is journaled before it is
// acknowledged — are dropped. A key whose job is still live is never
// evicted (a retry of an in-flight submission must keep deduping), so
// the table can transiently exceed the cap by the number of live
// keyed jobs, which the bounded queue itself bounds. Caller holds
// e.mu.
func (e *engine) evictIdemLocked() {
	if len(e.idem) <= e.maxIdemKeys {
		return
	}
	kept := e.idemOrder[:0]
	for _, key := range e.idemOrder {
		j, ok := e.idem[key]
		if !ok {
			continue // key already released (journal-failure path)
		}
		if len(e.idem) > e.maxIdemKeys {
			select {
			case <-j.done: // terminal: journaled, safe to forget
				delete(e.idem, key)
				e.metrics.Counter("serve.idem_keys_evicted").Inc()
				continue
			default:
			}
		}
		kept = append(kept, key)
	}
	e.idemOrder = kept
}

// Submit validates nothing (the handler already has), records the job
// and enqueues it; with a journal attached the admission is journaled
// before Submit returns, so an acknowledged job survives a crash.
// release is the dataset reference to return when the job reaches a
// terminal state; on submission failure (and on an idempotent replay,
// where the prior job holds its own reference) Submit releases it
// itself. It returns the job's status as of its acknowledgment.
func (e *engine) Submit(ctx context.Context, req JobRequest, release func()) (JobStatus, error) {
	j := &job{
		req:      req,
		enqueued: time.Now(), //lint:allow determinism job lifecycle timestamp is reporting metadata, not a pipeline input
		metrics:  obs.NewRegistry(),
		tracer:   obs.NewTracer(),
		release:  release,
		done:     make(chan struct{}),
		admitted: make(chan struct{}),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		release()
		return JobStatus{}, ErrShuttingDown
	}
	if req.IdempotencyKey != "" {
		if prev, ok := e.idem[req.IdempotencyKey]; ok {
			e.mu.Unlock()
			release()
			e.metrics.Counter("serve.jobs_deduped").Inc()
			e.logger.Info("job submission deduped", "job", prev.id, "idem_key", req.IdempotencyKey)
			return prev.status(), nil
		}
	}
	e.seq++
	j.id = fmt.Sprintf("job-%06d", e.seq)
	if key, cacheable := cacheKey(req); cacheable && e.cache != nil {
		if raw, hit := e.cache.get(key); hit {
			// Cache fast path: the job goes straight to done with the
			// stored result — never queued, never charged against the
			// tenant's quota, still journaled like any other submission.
			j.tenant = e.queue.canonical(tenantOf(req))
			e.jobs[j.id] = j
			e.order = append(e.order, j.id)
			if req.IdempotencyKey != "" {
				e.idemInsertLocked(req.IdempotencyKey, j)
			}
			e.mu.Unlock()
			if err := e.finishFromCache(ctx, j, raw); err != nil {
				return JobStatus{}, err
			}
			return j.status(), nil
		}
	}
	tenant, hint, qerr := e.queue.push(j, false)
	if qerr != nil {
		e.mu.Unlock()
		release()
		switch {
		case errors.Is(qerr, ErrRateLimited):
			e.metrics.Counter("serve.jobs_throttled").Inc()
			e.metrics.Counter(obs.WithLabel("serve.tenant_throttled", "tenant", tenant)).Inc()
			return JobStatus{}, &RetryAfterError{Err: qerr, Seconds: hint}
		case errors.Is(qerr, ErrQueueFull):
			e.metrics.Counter("serve.jobs_rejected").Inc()
			e.metrics.Counter(obs.WithLabel("serve.tenant_rejected", "tenant", tenant)).Inc()
			return JobStatus{}, &RetryAfterError{Err: qerr, Seconds: e.retryAfter()}
		}
		return JobStatus{}, qerr
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	if req.IdempotencyKey != "" {
		e.idemInsertLocked(req.IdempotencyKey, j)
	}
	e.mu.Unlock()
	e.metrics.Counter(obs.WithLabel("serve.tenant_submitted", "tenant", tenant)).Inc()
	e.traceIdentity(ctx, j)
	if err := e.admit(ctx, j); err != nil {
		return JobStatus{}, err
	}
	// The acknowledgment reports the job as admitted: once admitted is
	// closed a worker may run it to completion before Submit returns.
	st := j.status()
	close(j.admitted)
	e.metrics.Counter("serve.jobs_submitted").Inc()
	e.metrics.Gauge("serve.jobs_queued").Set(float64(e.queue.len()))
	e.logger.Info("job queued", "job", j.id, "kind", req.Kind, "dataset", req.DatasetID, "tenant", tenant)
	return st, nil
}

// finishFromCache completes a cache-hit submission: the job is
// journaled (admission + done) exactly like a run job — recovery must
// agree the job finished — then finished with the cached result bytes.
// A journal failure follows the same contracts as the slow path: an
// unjournaled admission poisons the submission; an unjournaled done
// degrades to failed.
func (e *engine) finishFromCache(ctx context.Context, j *job, raw json.RawMessage) error {
	e.traceIdentity(ctx, j)
	_, sp := obs.StartSpan(obs.WithTracer(ctx, j.tracer), "serve.cache_hit")
	sp.SetStr("job", j.id)
	sp.SetStr("kind", j.req.Kind)
	sp.End()
	if err := e.admit(ctx, j); err != nil {
		return err
	}
	defer close(j.admitted)
	e.metrics.Counter("serve.jobs_submitted").Inc()
	if e.finish(ctx, j, StateDone, "", raw, "cached result not journaled: ") != StateDone {
		return nil
	}
	e.queue.recordCacheHit(j.tenant)
	e.metrics.Counter("serve.cache_hits").Inc()
	e.metrics.Counter(obs.WithLabel("serve.tenant_cache_hits", "tenant", j.tenant)).Inc()
	return nil
}

// cacheFill stores a done job's result for replay. Marshal errors just
// skip the fill — the cache is an optimization, never a correctness
// dependency.
func (e *engine) cacheFill(req JobRequest, res any) {
	if e.cache == nil || res == nil {
		return
	}
	key, ok := cacheKey(req)
	if !ok {
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return
	}
	e.cache.put(key, raw)
}

// accountFinish folds a terminal transition into the job's tenant
// accounting (fair-queue rows + labeled server counters).
func (e *engine) accountFinish(tenant string, final State) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	e.queue.recordOutcome(tenant, final)
	e.metrics.Counter(obs.WithLabel("serve.tenant_"+string(final), "tenant", tenant)).Inc()
}

// retryAfter derives the Retry-After hint for a full-queue rejection
// from the current backlog and the observed mean job duration across
// the worker pool.
func (e *engine) retryAfter() int {
	h := e.metrics.Histogram("serve.job_duration_ms", obs.DefaultDurationBucketsMS)
	var avg float64
	if n := h.Count(); n > 0 {
		avg = h.Sum() / float64(n)
	}
	return retryAfterSecs(e.queue.len(), e.workers, avg)
}

// traceIdentity stamps the job's tracer with its deterministic
// cross-node identity and records the submission span. The trace ID is
// node/job-NNNNNN from the engine sequence — no entropy, no clock — or
// the ID an upstream hop already minted (a forwarding follower, the
// client), carried in on the request context. A forwarded submission
// records a "forwarded" event naming the relaying node, so the hop is
// visible in the stitched timeline.
func (e *engine) traceIdentity(ctx context.Context, j *job) {
	tc := obs.TraceContextFrom(ctx)
	traceID := tc.TraceID
	if traceID == "" {
		traceID = j.id
		if e.node != "" {
			traceID = e.node + "/" + j.id
		}
	}
	j.tracer.SetIdentity(e.node, traceID)
	_, sp := obs.StartSpan(obs.WithTracer(ctx, j.tracer), "serve.submit")
	sp.SetStr("job", j.id)
	sp.SetStr("kind", j.req.Kind)
	if tc.Via != "" {
		sp.Event("forwarded", "via "+tc.Via)
	}
	sp.End()
}

// Job returns the engine's record for id.
func (e *engine) Job(id string) (*job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	return j, nil
}

// List returns every job's status in submission order.
func (e *engine) List() []JobStatus {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, e.jobs[id])
	}
	e.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation: a queued job goes terminal
// immediately (journaled first, so the cancellation is durable before
// it is acknowledged); a running job has its context cancelled and
// goes terminal when the pipeline unwinds to its next cooperative
// checkpoint (that transition is journaled by the worker). Cancelling
// a terminal job is a no-op.
func (e *engine) Cancel(ctx context.Context, id string) (JobStatus, error) {
	j, err := e.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	<-j.admitted // a job is cancellable once its submission is journaled
	err = e.commit(ctx, j, func(cur durable.JobRecord) (durable.Record, error) {
		j.cancelWant = true
		if cur.State != StateQueued {
			if cur.State == StateRunning && j.cancel != nil {
				j.cancel()
			}
			return durable.Record{}, errNoChange
		}
		// The worker that eventually dequeues it finds it terminal and
		// skips.
		return j.record(StateCancelled, "cancelled while queued", cur.Attempt), nil
	})
	if err != nil && !errors.Is(err, errNoChange) {
		return JobStatus{}, fmt.Errorf("serve: journal cancellation: %w", err)
	}
	return j.status(), nil
}

// restore inserts a job recovered from the journal: terminal jobs
// become queryable history; queued jobs re-enter the queue. The
// recovery path runs before start, so insertion order is preserved.
func (e *engine) restore(j *job) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrShuttingDown
	}
	if _, dup := e.jobs[j.id]; dup {
		return fmt.Errorf("serve: restore: duplicate job id %s", j.id)
	}
	if j.admitted == nil {
		// Recovered jobs were journaled in a previous life.
		ch := make(chan struct{})
		close(ch)
		j.admitted = ch
	}
	if j.tracer != nil {
		// Recovered jobs re-mint the same deterministic identity their
		// first life carried: node + journaled job ID.
		traceID := j.id
		if e.node != "" {
			traceID = e.node + "/" + j.id
		}
		j.tracer.SetIdentity(e.node, traceID)
	}
	if !j.rec.State.Terminal() {
		// Recovery re-admits already-accepted work: it bypasses the token
		// bucket (the quota was charged in the job's first life) but still
		// respects the per-tenant depth bound.
		if _, _, err := e.queue.push(j, true); err != nil {
			return fmt.Errorf("restore %s: %w", j.id, err)
		}
	}
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	if key := j.req.IdempotencyKey; key != "" {
		e.idemInsertLocked(key, j)
	}
	return nil
}

// StealQueued hands the oldest queued job to a remote node: the job
// leaves the local queue, its running state is journaled with the
// stealer's attribution, and the stealer executes it via RunRequest on
// its own data. Terminal outcomes come back through CompleteStolen,
// which fences on the returned attempt number. Jobs cancelled while
// queued are skipped (they are already finished); an empty queue is
// ErrNoStealable.
func (e *engine) StealQueued(ctx context.Context, node string) (*job, int, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, 0, ErrShuttingDown
	}
	for {
		j, ok := e.queue.tryPop()
		if !ok {
			return nil, 0, ErrNoStealable
		}
		e.metrics.Gauge("serve.jobs_queued").Set(float64(e.queue.len()))
		<-j.admitted
		var attempt int
		err := e.commit(ctx, j, func(cur durable.JobRecord) (durable.Record, error) {
			attempt = cur.Attempt
			rec := j.record(StateRunning, "", cur.Attempt)
			rec.Node = node
			return rec, nil
		})
		if errors.Is(err, errNoChange) {
			continue // cancelled while queued: already finished
		}
		if err != nil {
			// Same contract as a local start: a job whose start cannot be
			// journaled must not run anywhere.
			j.mu.Lock()
			e.endLocal(j, StateFailed, "steal start not journaled: "+err.Error())
			j.mu.Unlock()
			return nil, 0, fmt.Errorf("serve: journal steal: %w", err)
		}
		j.mu.Lock()
		j.started = time.Now() //lint:allow determinism job lifecycle timestamp is reporting metadata, not a pipeline input
		j.mu.Unlock()
		// The hand-off is a leader-side span: the stitched trace shows
		// who stole the job and when even before the stealer reports.
		_, sp := obs.StartSpan(obs.WithTracer(ctx, j.tracer), "serve.steal")
		sp.SetStr("job", j.id)
		sp.SetStr("stolen_by", node)
		sp.SetInt("attempt", int64(attempt))
		sp.End()
		e.metrics.Counter("serve.jobs_stolen").Inc()
		e.logger.Info("job stolen", "job", j.id, "node", node, "attempt", attempt)
		return j, attempt, nil
	}
}

// CompleteStolen lands a stolen job's terminal outcome, journaled with
// the stealer's attribution before it becomes observable. Reporting an
// already-terminal job is a no-op (a duplicate report after a retried
// delivery must not double-finish it), and a report whose attempt is
// not the job's current one is ErrStaleAttempt: the term alone cannot
// fence a stealer that outlives its steal timeout, because the
// re-queued copy runs under the same leadership — the attempt number
// is the per-life fence. commit holds j.mu across the fence check and
// the append, so a RequeueStolen cannot re-queue the job between them
// and have this result finish the wrong life. spans, when non-empty,
// are the stealer's span tree, grafted into the job's tracer (before
// done closes) so GET /jobs/{id}/trace serves one stitched timeline
// spanning both nodes.
func (e *engine) CompleteStolen(ctx context.Context, id string, final State, errMsg string, result json.RawMessage, node string, attempt int, spans []obs.SpanSnapshot) error {
	if !final.Terminal() {
		return fmt.Errorf("serve: stolen job %s reported non-terminal state %q", id, final)
	}
	j, err := e.Job(id)
	if err != nil {
		return err
	}
	err = e.commit(ctx, j, func(cur durable.JobRecord) (durable.Record, error) {
		if cur.State.Terminal() {
			return durable.Record{}, errNoChange
		}
		if attempt != cur.Attempt {
			e.metrics.Counter("serve.steal_results_stale").Inc()
			e.logger.Warn("dropped stale stolen-job result",
				"job", id, "node", node, "reported_attempt", attempt, "current_attempt", cur.Attempt)
			return durable.Record{}, fmt.Errorf("%w: job %s is on attempt %d, result reports attempt %d",
				ErrStaleAttempt, id, cur.Attempt, attempt)
		}
		if len(spans) > 0 {
			// Stitch the stealer's spans under the trace root: remote work
			// joins the local timeline, attributed to the node that ran it.
			j.tracer.Graft(0, node, spans)
			e.metrics.Counter("serve.trace_spans_grafted").Add(int64(len(spans)))
		}
		if final == StateDone && len(result) > 0 {
			j.result = result
		}
		rec := j.record(final, errMsg, attempt)
		rec.Node = node
		return rec, nil
	})
	if errors.Is(err, errNoChange) {
		return nil
	}
	if err != nil && !errors.Is(err, ErrStaleAttempt) {
		return fmt.Errorf("serve: journal steal result: %w", err)
	}
	return err
}

// RequeueStolen returns a stolen job to the queue after its stealer
// died without reporting, burning one attempt — the same budget a
// crash recovery charges. A spent budget fails the job. commit holds
// j.mu across the state check, the journal append, and the attempt
// bump, so a late CompleteStolen cannot slip between them: it either
// lands first (and the requeue sees a terminal job) or arrives after
// the bump and is fenced off by its stale attempt.
func (e *engine) RequeueStolen(ctx context.Context, id string) error {
	j, err := e.Job(id)
	if err != nil {
		return err
	}
	var requeued bool
	var refused error
	err = e.commit(ctx, j, func(cur durable.JobRecord) (durable.Record, error) {
		if cur.State != StateRunning {
			refused = fmt.Errorf("serve: requeue stolen job %s: state is %s, not running", id, cur.State)
			return durable.Record{}, refused
		}
		attempt := cur.Attempt + 1
		if e.maxAttempts > 0 && attempt >= e.maxAttempts {
			return j.record(StateFailed, fmt.Sprintf("stealer died; attempt budget exhausted (%d/%d)", attempt, e.maxAttempts), attempt), nil
		}
		requeued = true
		j.started = time.Time{}
		return j.record(StateQueued, "", attempt), nil
	})
	if err != nil {
		if errors.Is(err, refused) {
			return err
		}
		return fmt.Errorf("serve: journal steal requeue: %w", err)
	}
	if !requeued {
		return nil
	}
	// Re-admission bypasses the token bucket: the job's quota was
	// charged at its original submission.
	if _, _, qerr := e.queue.push(j, true); qerr != nil {
		// The job cannot wait in a full queue, so it fails — journaled
		// like any other outcome, so a restart does not re-run a job
		// whose client was told it failed.
		e.finish(ctx, j, StateFailed, "requeue after stealer death: queue full", nil, "")
		return fmt.Errorf("%w: requeue of stolen job %s", ErrQueueFull, id)
	}
	return nil
}

// setSeq raises the job-ID sequence to at least n, so IDs minted after
// a recovery never collide with journaled ones.
func (e *engine) setSeq(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n > e.seq {
		e.seq = n
	}
}

// counts returns the number of non-terminal jobs by state.
func (e *engine) counts() (queued, running int) {
	e.mu.Lock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.rec.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}

func (e *engine) worker(baseCtx context.Context) {
	defer e.wg.Done()
	for {
		j, ok := e.queue.pop()
		if !ok {
			return
		}
		e.metrics.Gauge("serve.jobs_queued").Set(float64(e.queue.len()))
		e.runOne(baseCtx, j)
	}
}

// runOne executes one dequeued job end to end. baseCtx is the
// engine's hard-stop context, threaded in from the worker loop.
func (e *engine) runOne(baseCtx context.Context, j *job) {
	// Wait out the submission's journal append (Submit enqueues before
	// it journals), so this job's records always follow its admission
	// record and a poisoned submission is seen as terminal below.
	<-j.admitted

	// Journal the start before the job observably runs. A job whose
	// start cannot be journaled must not run: its work would be
	// invisible to recovery, so it fails here instead.
	err := e.commit(baseCtx, j, j.to(StateRunning, "", nil))
	if errors.Is(err, errNoChange) {
		return // cancelled while queued
	}
	if err != nil {
		j.mu.Lock()
		e.endLocal(j, StateFailed, "start not journaled: "+err.Error())
		j.mu.Unlock()
		return
	}

	timeout := e.jobTimeout
	if req := time.Duration(j.req.TimeoutMS) * time.Millisecond; req > 0 && (timeout <= 0 || req < timeout) {
		timeout = req
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(baseCtx)
	}
	defer cancel()
	j.mu.Lock()
	j.started = time.Now() //lint:allow determinism job lifecycle timestamp is reporting metadata, not a pipeline input
	j.cancel = cancel
	if j.cancelWant {
		cancel() // a Cancel that found the job running before its context existed
	}
	attempt := j.rec.Attempt
	j.mu.Unlock()

	// The job's observability is private: its own registry (progress
	// counters) and tracer (span tree), plus the server's logger.
	ctx = obs.WithMetrics(ctx, j.metrics)
	ctx = obs.WithTracer(ctx, j.tracer)
	ctx = obs.WithLogger(ctx, e.logger)
	ctx, sp := obs.StartSpan(ctx, "serve.job")
	sp.SetStr("job", j.id)
	sp.SetStr("kind", j.req.Kind)

	e.metrics.Gauge("serve.jobs_running").Set(float64(e.running(+1)))
	e.logger.Info("job started", "job", j.id, "kind", j.req.Kind, "attempt", attempt)
	res, err := e.invoke(ctx, j)
	sp.End()
	e.metrics.Gauge("serve.jobs_running").Set(float64(e.running(-1)))
	elapsed := time.Since(j.started)
	e.metrics.Histogram("serve.job_duration_ms", obs.DefaultDurationBucketsMS).
		Observe(float64(elapsed.Milliseconds()))
	e.logSlowJob(j, elapsed)

	j.mu.Lock()
	cancelWant := j.cancelWant
	j.mu.Unlock()
	var final State
	var msg string
	switch {
	case err == nil:
		final = StateDone
	case cancelWant || errors.Is(err, context.Canceled):
		// DELETE /jobs/{id} or shutdown: both surface as cancelled.
		final, msg = StateCancelled, err.Error()
	default:
		final, msg = StateFailed, err.Error()
	}
	// Journal the outcome before it becomes observable.
	e.finish(ctx, j, final, msg, res, "result not journaled: ")
}

// logSlowJob names where a slow job's time went: when the run exceeds
// the configured threshold, every finished span is logged with its
// duration — for an identify/remedy job that is the level-by-level
// lattice timings (core.identify.level spans), exactly the breakdown
// the hot-path work needs without anyone racing to fetch the trace.
func (e *engine) logSlowJob(j *job, elapsed time.Duration) {
	if e.slowJob <= 0 || elapsed < e.slowJob {
		return
	}
	e.metrics.Counter("serve.jobs_slow").Inc()
	e.logger.Warn("slow job", "job", j.id, "kind", j.req.Kind,
		"elapsed_ms", elapsed.Milliseconds(), "threshold_ms", e.slowJob.Milliseconds())
	for _, ss := range j.tracer.Snapshot() {
		if ss.Unfinished {
			continue
		}
		e.logger.Warn("slow job span", "job", j.id, "span", ss.Name,
			"start_us", ss.StartUS, "duration_us", ss.DurationUS)
	}
}

// invoke runs the job's pipeline stage, converting a panic anywhere
// under the runner (including injected worker crashes that escape the
// library's own recovery) into an error so one bad job cannot take a
// worker goroutine down with it.
func (e *engine) invoke(ctx context.Context, j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if err := faults.FireCtx(ctx, faults.ServeJob, j.id); err != nil {
		return nil, err
	}
	return e.run(ctx, j)
}

// running adjusts and returns the live-worker gauge count.
func (e *engine) running(delta int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seqRunning += delta
	return e.seqRunning
}

// demote quiesces the engine for a live deposed-node rejoin: every
// known job is forgotten, running work is cancelled, the queue is
// drained — but the workers stay up and intake stays open, so a later
// Promote can rebuild state from the re-replicated journal on the same
// engine. Nothing is journaled: the caller has already fenced the
// journal (a deposed node's originated appends must never land), and
// any forked suffix these jobs sat on is about to be truncated or
// snapshot-replaced by the new leader's stream — the fleet's journal
// owns their fate now. Returns the number of live jobs dropped.
func (e *engine) demote() int {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0
	}
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.jobs = make(map[string]*job)
	e.order = nil
	e.idem = make(map[string]*job)
	e.idemOrder = nil
	e.mu.Unlock()
	dropped := 0
	for _, j := range jobs {
		j.mu.Lock()
		switch {
		case j.rec.State.Terminal():
			// History only; nothing to unwind.
		case j.rec.State == StateRunning && j.cancel != nil:
			// The worker unwinds via its cancelled context. Its final
			// append hits the fence, so the outcome degrades to a local
			// failure and can never be acked from this deposed node.
			j.cancelWant = true
			j.cancel()
			dropped++
		default:
			// Queued, mid-admission, stolen-out with no local worker, or
			// just started with its context not yet set (cancelWant stops
			// that worker): finish locally without a journal record. The
			// fence forbids the append, and the record would sit on a
			// superseded suffix anyway — the new leader's log decides what
			// became of the job.
			j.cancelWant = true
			e.endLocal(j, StateCancelled, "node demoted; rejoining the fleet")
			dropped++
		}
		j.mu.Unlock()
	}
	// Empty the tenant FIFOs so stale (now-terminal) entries don't hold
	// per-tenant depth against jobs a later Promote restores. Workers
	// racing this drain just skip the terminal jobs they pop.
	for {
		if _, ok := e.queue.tryPop(); !ok {
			break
		}
	}
	e.metrics.Counter("serve.jobs_demoted").Add(int64(dropped))
	return dropped
}

// Shutdown stops intake, discards the queue (those jobs go
// cancelled), and waits for running jobs to drain. If ctx expires
// first the engine cancels its base context — every running job stops
// at its next cooperative checkpoint and is marked cancelled — and
// waits for the workers to exit.
func (e *engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// Drain queued jobs: they never ran, they are cancelled outright.
	// close stops intake and wakes every worker blocked in pop. Jobs
	// already cancelled while queued (still parked in a tenant FIFO) were
	// finished and accounted then; skip them here.
	for _, j := range e.queue.close() {
		<-j.admitted
		// Journal the cancellation before it becomes observable: without
		// the record, a crash after this drain re-queues (and re-runs)
		// jobs whose submitters were already told "cancelled". Unlike
		// Cancel we proceed on journal failure: the server is going away
		// either way, and a loud error beats wedging shutdown on a
		// failing disk.
		e.finish(ctx, j, StateCancelled, "server shutting down", nil, "")
	}
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline hit: hard-cancel the stragglers and wait for
		// the cooperative unwind (bounded by the pipeline's checkpoint
		// stride, not by the jobs' full runtime).
		err = ctx.Err()
		e.abort()
		<-done
	}
	e.abort() // release the base context either way
	return err
}
