// Package serve turns the one-shot pipeline (identify → remedy →
// train → audit) into a long-running fairness-repair service — the
// auditing-as-a-service deployment shape: clients register datasets
// once and submit repeated audit/repair jobs against them as models
// and data evolve.
//
// The server is three pieces on the Go standard library:
//
//   - a dataset Registry: CSV uploads are streamed through
//     dataset.ReadCSVLimit (size-capped, never buffered whole), keyed
//     by content hash (idempotent re-upload), profiled once
//     (cached Describe summaries), and evicted LRU — but never while
//     a job holds a reference;
//
//   - an async job engine: a bounded worker pool drains a bounded
//     queue of identify/remedy/train/audit jobs. Submission never
//     blocks — a full queue is an immediate 429 — and every job runs
//     under its own context deadline, span tree, and private metrics
//     registry, so GET /jobs/{id} reports live partial-progress
//     counters and DELETE /jobs/{id} cancels with bounded latency via
//     the pipeline's cooperative checkpoints;
//
//   - HTTP handlers binding the two together, plus /healthz and a
//     /metrics endpoint serving the server-level obs registry.
//
// Jobs honor the internal/faults hooks (the engine fires
// faults.ServeJob as each job starts, and the pipeline's own points
// fire inside jobs), so the robustness suite extends to the server:
// injected failures surface as failed jobs with error detail, never
// as wedged workers. Shutdown drains running jobs within a deadline
// and marks everything else cancelled.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/obs"
)

// Config sizes the server. Zero values take the documented defaults.
type Config struct {
	// MaxDatasets caps the registry (default 16 resident datasets).
	MaxDatasets int
	// MaxUploadRows / MaxUploadBytes cap one CSV upload (defaults
	// 2,000,000 rows and 256 MiB; negative = unlimited).
	MaxUploadRows  int
	MaxUploadBytes int64
	// Workers is the job pool size (default 4) and QueueDepth the
	// bounded queue length behind it (default 16).
	Workers    int
	QueueDepth int
	// JobTimeout is the per-job deadline (default 5m); a shorter
	// request-supplied deadline wins, a longer one is clamped to it. A
	// negative JobTimeout means jobs run without a deadline unless the
	// request sets one.
	JobTimeout time.Duration
	// MaxAttempts caps how many lives one job gets across crash
	// recoveries (default 3): a job found running in the journal is
	// re-queued with its attempt counter bumped until the budget is
	// spent, then marked failed. Only meaningful with a durable store.
	MaxAttempts int
	// MaxIdemKeys caps the idempotency-key dedup table (default 1024).
	// Past the cap, keys of terminal jobs — whose outcome the journal
	// already proves — are evicted oldest first; keys of live jobs are
	// never evicted, so dedup of anything still in flight is
	// unaffected. A test seam: cluster_ready_test.go sets 8 and 2.
	MaxIdemKeys int
	// Tenants configures the multi-tenant admission layer: per-tenant
	// fair-share weight and token-bucket quota, keyed by the tenant name
	// clients send in the X-Remedy-Tenant header. Tenants not listed
	// here are admitted under DefaultQuota on first sight (up to a
	// bounded table; overflow folds into the default tenant).
	Tenants map[string]TenantConfig
	// DefaultQuota applies to the default tenant and to every tenant not
	// named in Tenants (zero value: weight 1, unlimited rate).
	DefaultQuota TenantConfig
	// CacheEntries bounds the response cache replaying identical
	// identify/train/audit submissions without re-running them (default
	// 128; negative disables caching).
	CacheEntries int
	// NodeID names this node in a cluster ("" for single-node mode);
	// it appears in health output, work-stealing attribution, and the
	// deterministic trace IDs minted at submission.
	NodeID string
	// SlowJobThreshold, when positive, turns on the slow-job log: a job
	// whose run exceeds it logs its span timings level by level at
	// completion, so the expensive lattice levels are named without
	// anyone having to fetch the trace in time.
	SlowJobThreshold time.Duration
	// Logger receives the server's log lines; nil is silent. The
	// server makes its own metrics registry; Server.Metrics returns it.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxDatasets == 0 {
		c.MaxDatasets = 16
	}
	if c.MaxUploadRows == 0 {
		c.MaxUploadRows = 2_000_000
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.MaxIdemKeys <= 0 {
		c.MaxIdemKeys = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	return c
}

// ClusterView is the narrow window the serving layer needs onto the
// cluster a node belongs to. internal/cluster implements it; a nil
// view is single-node mode. Keeping the interface here (and the
// implementation there) is what lets cluster import serve for its
// inter-node client without a cycle.
type ClusterView interface {
	// Role returns this node's current role ("leader", "follower", or
	// "deposed"), the current term, and the leading node's ID ("" while
	// no term is established).
	Role() (role string, term uint64, leader string)
	// LeaderURL returns the base URL of the current leader, or "" when
	// it is unknown or this node is the leader itself.
	LeaderURL() string
}

// FleetLag is an optional extension of ClusterView: a leader-side
// cluster exposes per-follower replication lag (journal frames
// behind), surfaced in /readyz and /healthz. Checked by assertion so
// existing ClusterView implementations and test fakes keep compiling.
type FleetLag interface {
	// FollowerLag maps follower node ID → frames behind the leader's
	// journal (nil when this node is not leading).
	FollowerLag() map[string]uint64
}

// Server is the remedyd application: registry + engine + handlers,
// plus an optional durable store (journal + dataset spill).
type Server struct {
	cfg      Config
	registry *Registry
	engine   *engine
	metrics  *obs.Registry
	logger   *obs.Logger
	store    *durable.Store

	// readyMu guards the readiness fields. notReady is "" when the node
	// is ready to serve; otherwise it carries the reason (/readyz body).
	readyMu  sync.Mutex
	notReady string

	// cluster, when non-nil, makes this node fleet-aware: follower
	// nodes forward API traffic to the leader and health output carries
	// the role/term. Set once via SetCluster before serving traffic.
	cluster ClusterView
	// forward issues forwarded requests; nil means http.DefaultClient.
	forward *http.Client
	// fetchDataset, when non-nil, is called on a dataset-registry miss
	// during recovery or stolen-job execution to pull the dataset from
	// the cluster before the lookup is retried.
	fetchDataset func(ctx context.Context, id string) error
	// fleetObs, when non-nil, assembles the fleet-wide observability
	// view behind GET /metrics/fleet (the cluster installs it on the
	// leader). Nil serves a single-node fleet of one.
	fleetObs func(ctx context.Context) (FleetObs, error)
	// fwdSeq numbers the trace IDs this node mints for forwarded
	// requests that arrived untraced — deterministic per node
	// (node-id/fwd-NNNNNN), no entropy.
	fwdSeq atomic.Int64

	// recTerm/recLeader are the last leadership term the journal
	// witnessed, captured during recovery for the cluster bootstrap;
	// recTermStarts is the full term-start history (snapshot + tail),
	// which the cluster exchanges for fork detection.
	recTerm       uint64
	recLeader     string
	recTermStarts []durable.TermStart
}

// newServer builds the registry and engine without starting workers.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxDatasets, cfg.MaxUploadRows, cfg.MaxUploadBytes),
		metrics:  obs.NewRegistry(),
		logger:   cfg.Logger,
	}
	s.engine = newEngine(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout,
		func(ctx context.Context, j *job) (any, error) { return s.runJob(ctx, j) },
		s.metrics, s.logger)
	s.engine.maxAttempts = cfg.MaxAttempts
	s.engine.maxIdemKeys = cfg.MaxIdemKeys
	s.engine.node = cfg.NodeID
	s.engine.slowJob = cfg.SlowJobThreshold
	s.engine.cache = newRespCache(cfg.CacheEntries)
	s.engine.queue.setDefaults(cfg.DefaultQuota)
	// Sorted registration keeps the DRR ring order — and everything
	// derived from it (health rows, drain order) — deterministic across
	// restarts regardless of map iteration order.
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.engine.queue.configure(name, cfg.Tenants[name])
	}
	return s
}

// New builds an in-memory server and starts its worker pool. Callers
// mount Handler on an http.Server and call Shutdown when done. State
// does not survive a restart; see NewDurable for the crash-safe mode.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.engine.start()
	return s
}

// NewDurable builds a crash-safe server on the given store: recovery
// replays the journal and re-loads spilled datasets before any worker
// runs, then every dataset admission and job transition is made
// durable before it is acknowledged. The store's journal stays open
// for the server's lifetime; Close the store after Shutdown.
func NewDurable(ctx context.Context, cfg Config, store *durable.Store) (*Server, error) {
	s := newServer(cfg)
	s.store = store
	s.registry.store = store
	if err := s.recover(ctx); err != nil {
		return nil, err
	}
	s.engine.start()
	return s, nil
}

// NewFollower builds a durable server in cluster-standby mode: the
// store is attached and the journal's intact prefix is made consistent
// (datasets restored, sequence seeded, any torn tail cut), but no job
// is restored and — critically — nothing is appended. A follower's
// journal is a replica of its leader's log; appending recovery records
// of its own would fork it positionally. The node starts not-ready
// ("no current term") and its engine runs with an empty queue; Promote
// turns it into a serving leader when the cluster elects it.
func NewFollower(ctx context.Context, cfg Config, store *durable.Store) (*Server, error) {
	s := newServer(cfg)
	s.store = store
	s.registry.store = store
	s.engine.journal = store.Journal()
	s.SetNotReady("no current term")
	if err := s.recoverStandby(ctx); err != nil {
		return nil, err
	}
	s.engine.start()
	return s, nil
}

// Registry exposes the dataset registry (tests and embedding callers).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the server-level registry backing /metrics.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Store exposes the durable store (nil in the in-memory mode).
func (s *Server) Store() *durable.Store { return s.store }

// RecoveredTerm returns the last leadership term (and its leader) the
// journal witnessed, captured at recovery — the cluster bootstrap's
// starting point. Zero/"" for a journal that never ran in a cluster.
func (s *Server) RecoveredTerm() (uint64, string) { return s.recTerm, s.recLeader }

// RecoveredTermStarts returns the journal's full term-start history as
// recovery reconstructed it — snapshot-carried entries plus the tail's
// RecTerm records, with absolute sequences. The cluster seeds its fork
// detection from this instead of re-scanning the journal file, which
// after compaction no longer holds the early RecTerm records.
func (s *Server) RecoveredTermStarts() []durable.TermStart {
	return append([]durable.TermStart(nil), s.recTermStarts...)
}

// SetCluster attaches the cluster view. Call once, before the handler
// serves traffic.
func (s *Server) SetCluster(cv ClusterView) { s.cluster = cv }

// SetForwardClient overrides the HTTP client used to forward follower
// traffic to the leader (tests inject an httptest client).
func (s *Server) SetForwardClient(c *http.Client) { s.forward = c }

// SetDatasetFetcher installs the cluster's fetch-on-miss hook: on a
// dataset-registry miss during recovery or stolen-job execution, fn is
// invoked to pull the dataset from its owning node, then the lookup is
// retried.
func (s *Server) SetDatasetFetcher(fn func(ctx context.Context, id string) error) {
	s.fetchDataset = fn
}

// SetFleetObs installs the fleet-wide observability aggregator behind
// GET /metrics/fleet (the cluster layer provides it; a nil fn keeps
// the single-node fleet-of-one view). Call before serving traffic.
func (s *Server) SetFleetObs(fn func(ctx context.Context) (FleetObs, error)) {
	s.fleetObs = fn
}

// LocalNodeObs snapshots this node's own observability view — the
// per-node unit the fleet aggregation is built from, and the body
// /cluster/obs serves.
func (s *Server) LocalNodeObs() NodeObs {
	h := s.health()
	return NodeObs{
		NodeID:  s.cfg.NodeID,
		Role:    h.Role,
		Term:    h.Term,
		Health:  h,
		Metrics: s.metrics.Snapshot(),
	}
}

// SetReady marks the node ready to serve.
func (s *Server) SetReady() {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	s.notReady = ""
}

// SetNotReady marks the node not ready, with the reason /readyz
// reports. Liveness (/livez) is unaffected.
func (s *Server) SetNotReady(reason string) {
	if reason == "" {
		reason = "not ready"
	}
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	s.notReady = reason
}

// Readiness reports whether the node is ready and, when it is not,
// the reason.
func (s *Server) Readiness() (bool, string) {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	return s.notReady == "", s.notReady
}

// acquireDataset is Registry.Acquire plus the cluster's fetch-on-miss
// hook: an unknown dataset is fetched from the fleet once, then the
// lookup is retried.
func (s *Server) acquireDataset(ctx context.Context, id string) (*dataset.Dataset, func(), error) {
	d, release, err := s.registry.Acquire(id)
	if err == nil || s.fetchDataset == nil || !errors.Is(err, ErrDatasetNotFound) {
		return d, release, err
	}
	if ferr := s.fetchDataset(ctx, id); ferr != nil {
		return nil, nil, fmt.Errorf("%w (cluster fetch: %v)", err, ferr)
	}
	return s.registry.Acquire(id)
}

// Shutdown stops job intake, cancels queued jobs, and drains running
// ones until ctx expires; stragglers are then hard-cancelled and
// marked cancelled once they unwind. It returns ctx.Err() if the
// drain deadline was hit, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.engine.Shutdown(ctx)
}
