package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// This file is the multi-tenant admission layer of the job engine: a
// weighted fair queue replacing the engine's former single FIFO
// channel. Every submission carries a tenant (the X-Remedy-Tenant
// header; DefaultTenant when absent) and lands in that tenant's own
// bounded FIFO after passing its token bucket. Workers drain the
// tenant queues by deficit round robin — each visit grants a tenant a
// quantum equal to its weight and serves up to that many jobs before
// the ring advances — so under saturation tenants progress in
// proportion to their weights, and even a weight-1 tenant behind a
// weight-100 neighbor is served every ring rotation (no starvation).
// The queue is clock-free except for the token buckets, whose clock is
// injected so quota tests run on a fake one.

// TenantHeader is the HTTP header naming the submitting tenant on
// POST /jobs. Requests without it belong to DefaultTenant.
const TenantHeader = "X-Remedy-Tenant"

// DefaultTenant is the tenant attributed to submissions that name none.
const DefaultTenant = "default"

// maxTenants bounds the tenant table against cardinality abuse: once
// this many distinct tenants exist, submissions from further unknown
// tenants are folded into the default tenant's queue and quota (they
// still run; they just stop getting a private share).
const maxTenants = 64

// ErrRateLimited is returned by Submit when the tenant's token bucket
// is empty — the per-tenant quota signal, mapped to 429 like queue
// backpressure but with a refill-derived Retry-After.
var ErrRateLimited = errors.New("serve: tenant rate limit exceeded")

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	// Weight is the tenant's fair-share weight: the number of jobs the
	// scheduler may dispatch for this tenant per ring visit (default 1).
	// Under saturation, tenant throughput is proportional to weight.
	Weight int
	// Rate is the sustained submission quota in jobs per second refilled
	// into the tenant's token bucket (0 = unlimited, the default).
	Rate float64
	// Burst is the token bucket depth — how many submissions above the
	// sustained rate are absorbed at once (default ceil(Rate), min 1;
	// meaningless while Rate is 0).
	Burst int
}

func (t TenantConfig) withDefaults() TenantConfig {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.Rate > 0 && t.Burst <= 0 {
		t.Burst = int(math.Ceil(t.Rate))
		if t.Burst < 1 {
			t.Burst = 1
		}
	}
	return t
}

// TenantHealth is one tenant's row in the Health report: its
// configuration and lifetime accounting on this engine.
type TenantHealth struct {
	Name   string  `json:"name"`
	Weight int     `json:"weight"`
	Rate   float64 `json:"rate,omitempty"`
	Queued int     `json:"queued"`

	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done,omitempty"`
	Failed    int64 `json:"failed,omitempty"`
	Cancelled int64 `json:"cancelled,omitempty"`
	// Rejected counts 429s from a full tenant queue; Throttled counts
	// 429s from an empty token bucket; CacheHits counts submissions
	// answered from the response cache without queueing.
	Rejected  int64 `json:"rejected,omitempty"`
	Throttled int64 `json:"throttled,omitempty"`
	CacheHits int64 `json:"cache_hits,omitempty"`
}

// tenantQ is one tenant's slice of the fair queue. All fields are
// guarded by the owning fairQueue's mutex.
type tenantQ struct {
	name string
	cfg  TenantConfig

	fifo    []*job
	deficit int // remaining quantum in the current ring visit

	// Token bucket: tokens refill at cfg.Rate per second up to
	// cfg.Burst, clocked by the queue's injected now.
	tokens float64
	last   time.Time

	submitted, done, failed, cancelled int64
	rejected, throttled, cacheHits     int64
}

// fairQueue is the engine's multi-tenant queue: per-tenant bounded
// FIFOs drained by deficit round robin, fronted by per-tenant token
// buckets.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	tenants map[string]*tenantQ
	ring    []*tenantQ // deterministic round-robin order (registration order)
	cur     int        // ring cursor
	size    int        // total queued jobs across tenants

	depth    int // per-tenant FIFO cap (the former global queue depth)
	defaults TenantConfig
	closed   bool
	now      func() time.Time
}

// newFairQueue builds the queue with the given per-tenant depth and
// the quota applied to tenants that were not explicitly configured.
// now clocks the token buckets; nil means the wall clock. The default
// tenant always exists, so the overflow fold has somewhere to land.
func newFairQueue(depth int, defaults TenantConfig, now func() time.Time) *fairQueue {
	if depth <= 0 {
		depth = 16
	}
	if now == nil {
		now = time.Now //lint:allow determinism token-bucket refill clock; quota admission is wall-clock by nature and tests inject a fake
	}
	q := &fairQueue{
		tenants:  map[string]*tenantQ{},
		depth:    depth,
		defaults: defaults.withDefaults(),
		now:      now,
	}
	q.cond = sync.NewCond(&q.mu)
	q.addLocked(DefaultTenant, q.defaults)
	return q
}

// setDefaults replaces the unconfigured-tenant quota and re-points the
// default tenant at it. Call during construction, before traffic.
func (q *fairQueue) setDefaults(cfg TenantConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.defaults = cfg.withDefaults()
	q.tenants[DefaultTenant].cfg = q.defaults
	q.tenants[DefaultTenant].tokens = float64(q.defaults.Burst)
	q.tenants[DefaultTenant].last = q.now()
}

// configure registers (or re-points) one named tenant's policy.
func (q *fairQueue) configure(name string, cfg TenantConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	cfg = cfg.withDefaults()
	if t, ok := q.tenants[name]; ok {
		t.cfg = cfg
		t.tokens = float64(cfg.Burst)
		t.last = q.now()
		return
	}
	q.addLocked(name, cfg)
}

// addLocked appends a new tenant to the table and the ring. Caller
// holds q.mu (or is the constructor).
func (q *fairQueue) addLocked(name string, cfg TenantConfig) *tenantQ {
	t := &tenantQ{name: name, cfg: cfg, tokens: float64(cfg.Burst), last: q.now()}
	q.tenants[name] = t
	q.ring = append(q.ring, t)
	return t
}

// tenantLocked resolves name to its tenant entry, creating one with
// the default quota on first sight — or folding it into the default
// tenant once the table is full. Caller holds q.mu.
func (q *fairQueue) tenantLocked(name string) *tenantQ {
	if t, ok := q.tenants[name]; ok {
		return t
	}
	if len(q.tenants) >= maxTenants {
		return q.tenants[DefaultTenant]
	}
	return q.addLocked(name, q.defaults)
}

// canonical returns the tenant name submissions under name are
// accounted to (name itself, or the default tenant after the overflow
// fold).
func (q *fairQueue) canonical(name string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tenantLocked(name).name
}

// push enqueues j on its tenant's FIFO. bypassQuota skips the token
// bucket (journal recovery re-admits already-accepted work; charging
// quota twice would reject jobs the server once acknowledged). It
// returns the canonical tenant name the job was accounted under and,
// on ErrRateLimited, a refill-derived Retry-After hint in seconds.
func (q *fairQueue) push(j *job, bypassQuota bool) (tenant string, hint int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", 0, ErrShuttingDown
	}
	t := q.tenantLocked(tenantOf(j.req))
	if !bypassQuota && t.cfg.Rate > 0 {
		now := q.now()
		if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
			t.tokens = math.Min(float64(t.cfg.Burst), t.tokens+elapsed*t.cfg.Rate)
			t.last = now
		}
		if t.tokens < 1 {
			t.throttled++
			secs := int(math.Ceil((1 - t.tokens) / t.cfg.Rate))
			return t.name, clampSecs(secs), fmt.Errorf("%w: tenant %s over %.3g jobs/s quota", ErrRateLimited, t.name, t.cfg.Rate)
		}
	}
	if len(t.fifo) >= q.depth {
		t.rejected++
		return t.name, 0, fmt.Errorf("%w: tenant %s has %d jobs queued", ErrQueueFull, t.name, len(t.fifo))
	}
	if !bypassQuota && t.cfg.Rate > 0 {
		t.tokens--
	}
	// Stamp the canonical tenant here, under q.mu: a worker can pop the
	// job the instant it is appended, and the queue mutex is the
	// happens-before edge that publishes the write.
	j.tenant = t.name
	t.fifo = append(t.fifo, j)
	t.submitted++
	q.size++
	q.cond.Signal()
	return t.name, 0, nil
}

// pop blocks until a job is available (dispatched by deficit round
// robin) or the queue is closed and drained, in which case ok is
// false and the calling worker exits.
func (q *fairQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return nil, false
	}
	return q.popLocked(), true
}

// tryPop is the non-blocking pop behind work stealing.
func (q *fairQueue) tryPop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil, false
	}
	return q.popLocked(), true
}

// popLocked dispatches one job by deficit round robin: visiting a
// tenant grants it a quantum of cfg.Weight jobs; the ring advances
// when the quantum is spent or the tenant's FIFO empties. Unit job
// cost keeps the arithmetic integral. Caller holds q.mu and has
// checked size > 0, so the scan terminates within one rotation.
func (q *fairQueue) popLocked() *job {
	for {
		t := q.ring[q.cur]
		if len(t.fifo) == 0 {
			t.deficit = 0
			q.cur = (q.cur + 1) % len(q.ring)
			continue
		}
		if t.deficit <= 0 {
			t.deficit = t.cfg.Weight
		}
		j := t.fifo[0]
		t.fifo[0] = nil
		t.fifo = t.fifo[1:]
		t.deficit--
		q.size--
		if t.deficit <= 0 || len(t.fifo) == 0 {
			t.deficit = 0
			q.cur = (q.cur + 1) % len(q.ring)
		}
		return j
	}
}

// close stops intake, wakes every blocked worker, and returns the
// still-queued jobs in deterministic ring order for the caller to
// cancel.
func (q *fairQueue) close() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	var drained []*job
	for _, t := range q.ring {
		drained = append(drained, t.fifo...)
		t.fifo = nil
		t.deficit = 0
	}
	q.size = 0
	q.cond.Broadcast()
	return drained
}

// len returns the total queued job count across tenants.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// recordOutcome folds one job's terminal state into its tenant's
// accounting.
func (q *fairQueue) recordOutcome(tenant string, final State) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(tenant)
	switch final {
	case StateDone:
		t.done++
	case StateFailed:
		t.failed++
	case StateCancelled:
		t.cancelled++
	}
}

// recordCacheHit accounts one submission answered from the response
// cache: it counts as submitted without ever queueing (its done is
// counted by recordOutcome, like any other job's).
func (q *fairQueue) recordCacheHit(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(tenant)
	t.submitted++
	t.cacheHits++
}

// tenantHealth snapshots every tenant's row in ring (registration)
// order — deterministic output for /healthz and remedyctl status.
func (q *fairQueue) tenantHealth() []TenantHealth {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantHealth, 0, len(q.ring))
	for _, t := range q.ring {
		out = append(out, TenantHealth{
			Name:      t.name,
			Weight:    t.cfg.Weight,
			Rate:      t.cfg.Rate,
			Queued:    len(t.fifo),
			Submitted: t.submitted,
			Done:      t.done,
			Failed:    t.failed,
			Cancelled: t.cancelled,
			Rejected:  t.rejected,
			Throttled: t.throttled,
			CacheHits: t.cacheHits,
		})
	}
	return out
}

// tenantOf names the tenant a request belongs to.
func tenantOf(req JobRequest) string {
	if req.Tenant == "" {
		return DefaultTenant
	}
	return req.Tenant
}

// RetryAfterError decorates a backpressure error with a derived
// Retry-After in seconds; the handlers surface it on the 429 so
// well-behaved clients wait roughly one drain instead of a fixed
// second.
type RetryAfterError struct {
	Err     error
	Seconds int
}

func (e *RetryAfterError) Error() string { return e.Err.Error() }
func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfterSecs estimates how long a rejected submission should wait
// for the backlog to drain: queued jobs times the observed mean job
// duration, divided across the worker pool, clamped to [1, 60]
// seconds. A cold server (no observed jobs yet) assumes 250ms per
// job rather than zero, so the floor still applies.
func retryAfterSecs(queued, workers int, avgJobMS float64) int {
	if workers < 1 {
		workers = 1
	}
	if avgJobMS <= 0 {
		avgJobMS = 250
	}
	secs := math.Ceil(float64(queued) * avgJobMS / float64(workers) / 1000)
	return clampSecs(int(secs))
}

func clampSecs(secs int) int {
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}
