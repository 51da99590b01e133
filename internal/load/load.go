// Package load is the deterministic load harness behind cmd/remedyload:
// it synthesizes a dataset, fans out hundreds of virtual clients across
// a configured tenant mix, drives a running remedyd through the
// retrying serve.Client, and folds the outcomes into a report split
// into a Deterministic section — byte-identical across same-seed runs
// against an equivalent server — and an Observed section of wall-clock
// latencies, throughput, and error rates.
//
// Everything the virtual clients do is pre-drawn from seeded RNG
// streams before the first request leaves: the tenant mix, each
// client's job parameters, the retry jitter, and the idempotency keys.
// The only nondeterminism left is the scheduler's, which the report
// quarantines in the Observed section.
package load

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Tenant describes one tenant's slice of the generated load.
type Tenant struct {
	Name string `json:"name"`
	// Weight mirrors the server's fair-share weight for this tenant;
	// the fairness check compares observed throughput shares against it.
	Weight int `json:"weight"`
	// Clients is the number of concurrent virtual clients and Jobs the
	// number of jobs each submits.
	Clients int `json:"clients"`
	Jobs    int `json:"jobs"`
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the remedyd under test.
	BaseURL string
	// Seed drives every random draw in the run: the synthetic dataset,
	// each client's job schedule, and each client's retry jitter.
	Seed int64
	// Tenants is the load mix (default: one "default" tenant, 4 clients
	// × 4 jobs). Names must be unique.
	Tenants []Tenant
	// Rows is the synthetic COMPAS dataset size (default 400).
	Rows int
	// Kind is the job kind every client submits (default "identify").
	Kind string
	// RepeatIdentical, when set, resubmits the first client's first
	// request verbatim after the storm completes and verifies the server
	// answers it from the response cache with byte-identical results.
	RepeatIdentical bool
	// PollInterval is the job-completion polling cadence (default
	// 25ms). A test seam: the load tests set 5ms.
	PollInterval time.Duration
	// Logger, when non-nil, receives progress lines.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Rows <= 0 {
		c.Rows = 400
	}
	if c.Kind == "" {
		c.Kind = "identify"
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []Tenant{{Name: serve.DefaultTenant, Weight: 1, Clients: 4, Jobs: 4}}
	}
	return c
}

// Outcome is the deterministic record of one scheduled job, ordered by
// (tenant, client, job) in the report. Wall-clock fields live in the
// Observed section instead, so two same-seed runs produce identical
// Outcome lists.
type Outcome struct {
	Tenant string `json:"tenant"`
	Client int    `json:"client"`
	Job    int    `json:"job"`
	// State is the job's terminal state, or "submit_error" /
	// "wait_error" / "result_error" when the client never got one.
	State string `json:"state"`
	// Status is the HTTP status a failed call carried (0 for transport
	// errors).
	Status int `json:"status,omitempty"`
	// CacheHit marks a job the server answered from its response cache
	// (done without ever starting).
	CacheHit bool `json:"cache_hit,omitempty"`
	// ResultSHA is the truncated SHA-256 of the raw result bytes; the
	// pipeline is deterministic, so it is stable across runs.
	ResultSHA string `json:"result_sha,omitempty"`
}

// Deterministic is the report half that must be byte-identical across
// same-seed runs against an equivalently configured server.
type Deterministic struct {
	Seed      int64    `json:"seed"`
	Kind      string   `json:"kind"`
	Rows      int      `json:"rows"`
	DatasetID string   `json:"dataset_id"` // content-addressed, so seed-stable
	Tenants   []Tenant `json:"tenants"`
	// Lost counts accepted jobs that never reached a terminal state and
	// Duplicated accepted jobs sharing an ID; both must be zero.
	Lost       int       `json:"lost"`
	Duplicated int       `json:"duplicated"`
	Outcomes   []Outcome `json:"outcomes"`
	// CacheRepeatHit reports the RepeatIdentical probe: true means the
	// verbatim resubmission was answered from cache, byte-identical.
	CacheRepeatHit bool `json:"cache_repeat_hit,omitempty"`
}

// TenantStats is one tenant's observed aggregate.
type TenantStats struct {
	Name        string  `json:"name"`
	Weight      int     `json:"weight"`
	Done        int     `json:"done"`
	Failed      int     `json:"failed"`
	CacheHits   int     `json:"cache_hits"`
	Rejected429 int     `json:"rejected_429"`
	SubmitP50MS float64 `json:"submit_p50_ms"`
	SubmitP99MS float64 `json:"submit_p99_ms"`
	E2EP50MS    float64 `json:"e2e_p50_ms"`
	E2EP99MS    float64 `json:"e2e_p99_ms"`
	// StartedInWindow counts jobs this tenant started inside the
	// contention window (while every tenant still had backlog); Share is
	// its fraction of all such starts, WeightShare the fraction its
	// weight predicts, and Deviation |Share−WeightShare|/WeightShare.
	StartedInWindow int     `json:"started_in_window"`
	Share           float64 `json:"share"`
	WeightShare     float64 `json:"weight_share"`
	Deviation       float64 `json:"deviation"`
}

// Observed is the wall-clock half of the report: latencies, rates, and
// the fairness measurement. Nothing here participates in the
// byte-identity check.
type Observed struct {
	DurationMS    float64       `json:"duration_ms"`
	ThroughputJPS float64       `json:"throughput_jobs_per_sec"`
	Tenants       []TenantStats `json:"tenants"`
	// MaxFairnessDeviation is the worst per-tenant Deviation; the
	// acceptance bar is 0.2 when more than one weighted tenant saturates
	// the queue.
	MaxFairnessDeviation float64 `json:"max_fairness_deviation"`
	ClientRetries        int64   `json:"client_retries"`
	BreakerOpens         int64   `json:"breaker_opens"`
	RetryGiveUps         int64   `json:"retry_give_ups"`
	// Errors is the failure taxonomy: HTTP status (or "transport") →
	// count of jobs that ultimately failed with it.
	Errors map[string]int `json:"errors,omitempty"`
}

// Report is one load run's full result.
type Report struct {
	Deterministic Deterministic `json:"deterministic"`
	Observed      Observed      `json:"observed"`
}

// DeterministicBytes renders the Deterministic section alone; two
// same-seed runs must produce identical bytes.
func (r *Report) DeterministicBytes() ([]byte, error) {
	return json.MarshalIndent(r.Deterministic, "", "  ")
}

// Table renders the per-tenant observed aggregates for humans.
func (r *Report) Table() *experiments.Table {
	t := &experiments.Table{
		Title: fmt.Sprintf("remedyload: %d jobs in %.0fms (%.1f jobs/s, %d retries)",
			len(r.Deterministic.Outcomes), r.Observed.DurationMS,
			r.Observed.ThroughputJPS, r.Observed.ClientRetries),
		Columns: []string{"tenant", "weight", "done", "failed", "429", "cache",
			"submit p50/p99 ms", "e2e p50/p99 ms", "share", "dev"},
	}
	for _, ts := range r.Observed.Tenants {
		t.Rows = append(t.Rows, []string{
			ts.Name, fmt.Sprintf("%d", ts.Weight),
			fmt.Sprintf("%d", ts.Done), fmt.Sprintf("%d", ts.Failed),
			fmt.Sprintf("%d", ts.Rejected429), fmt.Sprintf("%d", ts.CacheHits),
			fmt.Sprintf("%.1f/%.1f", ts.SubmitP50MS, ts.SubmitP99MS),
			fmt.Sprintf("%.1f/%.1f", ts.E2EP50MS, ts.E2EP99MS),
			fmt.Sprintf("%.2f", ts.Share), fmt.Sprintf("%.2f", ts.Deviation),
		})
	}
	return t
}

// result carries one job's Outcome plus its observed-only fields.
type result struct {
	Outcome
	id      string
	started *time.Time
	e2eMS   float64
}

// clientPlan is one virtual client's pre-drawn schedule.
type clientPlan struct {
	tenant Tenant
	ci     int
	seed   int64
	reqs   []serve.JobRequest
}

// Run executes one load run against the server at cfg.BaseURL.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	seen := map[string]bool{}
	for _, t := range cfg.Tenants {
		if seen[t.Name] {
			return nil, fmt.Errorf("load: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
	}

	// Synthesize and upload the shared dataset. Uploading is idempotent
	// and the ID is content-addressed, so it is seed-stable.
	ds := synth.CompasN(cfg.Rows, cfg.Seed)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil, err
	}
	base := serve.NewClient(cfg.BaseURL)
	info, err := base.UploadDataset(ctx, &buf, "load-compas", "two_year_recid",
		[]string{"age", "race", "sex"})
	if err != nil {
		return nil, fmt.Errorf("load: upload dataset: %w", err)
	}
	cfg.Logger.Info("load: dataset ready", "id", info.ID, "rows", cfg.Rows)

	// Pre-draw every client's schedule before the first request leaves.
	// Each client owns an RNG stream keyed by (tenant index, client
	// index), so adding a tenant never perturbs another tenant's draws.
	var plans []*clientPlan
	for ti, t := range cfg.Tenants {
		for ci := 0; ci < t.Clients; ci++ {
			seed := cfg.Seed + int64(ti)*7919 + int64(ci)*104729 + 1
			rng := stats.NewRNG(seed)
			p := &clientPlan{tenant: t, ci: ci, seed: seed}
			for ji := 0; ji < t.Jobs; ji++ {
				p.reqs = append(p.reqs, serve.JobRequest{
					Kind:      cfg.Kind,
					DatasetID: info.ID,
					TauC:      0.05 + 0.01*float64(rng.Intn(6)),
					MinSize:   20 + 5*rng.Intn(4),
					Seed:      1 + rng.Int63n(1<<30),
				})
			}
			plans = append(plans, p)
		}
	}

	// reg holds this run's per-tenant latency histograms and the
	// clients' retry counters, which the Observed section reads.
	reg := obs.NewRegistry()
	start := time.Now() //lint:allow determinism wall-clock load measurement is the Observed half's job
	results := make([][]result, len(plans))
	var wg sync.WaitGroup
	for pi, p := range plans {
		wg.Add(1)
		go func(pi int, p *clientPlan) {
			defer wg.Done()
			results[pi] = runClient(ctx, cfg, reg, p)
		}(pi, p)
	}
	wg.Wait()
	durMS := float64(time.Since(start).Microseconds()) / 1000

	// The cache probe runs after the storm so the original is certainly
	// terminal: a verbatim resubmission must come back already done,
	// never started, with byte-identical result bytes.
	repeatHit := false
	if cfg.RepeatIdentical && len(plans) > 0 && len(results[0]) > 0 &&
		results[0][0].State == string(serve.StateDone) {
		repeatHit, err = probeCache(ctx, cfg, reg, plans[0], results[0][0])
		if err != nil {
			return nil, err
		}
	}

	return assemble(cfg, reg, info.ID, results, durMS, repeatHit), nil
}

// runClient plays one pre-drawn schedule: submit every job open-loop,
// then wait each one out and fetch its result hash. reg receives the
// client's retry counters and the latency histograms.
func runClient(ctx context.Context, cfg Config, reg *obs.Registry, p *clientPlan) []result {
	cl := serve.NewRetryingClient(cfg.BaseURL, serve.RetryPolicy{
		Seed:        p.seed,
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
	})
	cl.Tenant = p.tenant.Name
	cl.Obs = reg
	submitHist := reg.Histogram(
		obs.WithLabel("load.submit_ms", "tenant", p.tenant.Name), obs.DefaultDurationBucketsMS)
	e2eHist := reg.Histogram(
		obs.WithLabel("load.e2e_ms", "tenant", p.tenant.Name), obs.DefaultDurationBucketsMS)

	out := make([]result, len(p.reqs))
	var live []int
	for ji, req := range p.reqs {
		r := &out[ji]
		r.Tenant, r.Client, r.Job = p.tenant.Name, p.ci, ji
		t0 := time.Now() //lint:allow determinism latency measurement
		st, err := cl.SubmitJob(ctx, req)
		ms := float64(time.Since(t0).Microseconds()) / 1000
		submitHist.Observe(ms)
		if err != nil {
			r.State = "submit_error"
			r.Status = serve.StatusOf(err)
			continue
		}
		r.id = st.ID
		live = append(live, ji)
	}
	for _, ji := range live {
		r := &out[ji]
		st, err := cl.Wait(ctx, r.id, cfg.PollInterval)
		if err != nil {
			r.State = "wait_error"
			r.Status = serve.StatusOf(err)
			continue
		}
		r.State = string(st.State)
		r.started = st.StartedAt
		r.CacheHit = st.State == serve.StateDone && st.StartedAt == nil
		if st.FinishedAt != nil {
			r.e2eMS = float64(st.FinishedAt.Sub(st.EnqueuedAt).Microseconds()) / 1000
			e2eHist.Observe(r.e2eMS)
		}
		if st.State != serve.StateDone {
			continue
		}
		var raw json.RawMessage
		if err := cl.Result(ctx, r.id, &raw); err != nil {
			r.State = "result_error"
			r.Status = serve.StatusOf(err)
			continue
		}
		sum := sha256.Sum256(raw)
		r.ResultSHA = fmt.Sprintf("%x", sum[:8])
	}
	return out
}

// probeCache resubmits the first client's first request verbatim and
// checks the server answers it from the response cache: immediately
// done, never started, byte-identical result.
func probeCache(ctx context.Context, cfg Config, reg *obs.Registry, p *clientPlan, orig result) (bool, error) {
	cl := serve.NewRetryingClient(cfg.BaseURL, serve.RetryPolicy{Seed: p.seed + 1})
	cl.Tenant = p.tenant.Name
	cl.Obs = reg
	st, err := cl.SubmitJob(ctx, p.reqs[0])
	if err != nil {
		return false, fmt.Errorf("load: cache probe submit: %w", err)
	}
	if st.State != serve.StateDone || st.StartedAt != nil {
		cfg.Logger.Warn("load: cache probe missed", "state", st.State)
		return false, nil
	}
	var raw json.RawMessage
	if err := cl.Result(ctx, st.ID, &raw); err != nil {
		return false, fmt.Errorf("load: cache probe result: %w", err)
	}
	sum := sha256.Sum256(raw)
	if got := fmt.Sprintf("%x", sum[:8]); got != orig.ResultSHA {
		return false, fmt.Errorf("load: cache probe replay differs: %s vs %s", got, orig.ResultSHA)
	}
	reg.Counter("load.cache_repeat_hit").Inc()
	return true, nil
}

// assemble folds the per-client results into the two-part report.
func assemble(cfg Config, reg *obs.Registry, datasetID string, results [][]result, durMS float64, repeatHit bool) *Report {
	var all []result
	for _, rs := range results {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Job < b.Job
	})

	det := Deterministic{
		Seed: cfg.Seed, Kind: cfg.Kind, Rows: cfg.Rows,
		DatasetID: datasetID, Tenants: cfg.Tenants,
		CacheRepeatHit: repeatHit,
	}
	ids := map[string]bool{}
	errs := map[string]int{}
	byTenant := map[string]*TenantStats{}
	for _, t := range cfg.Tenants {
		byTenant[t.Name] = &TenantStats{Name: t.Name, Weight: t.Weight}
	}
	terminal := map[string]bool{
		string(serve.StateDone): true, string(serve.StateFailed): true,
		string(serve.StateCancelled): true,
	}
	doneTotal := 0
	for _, r := range all {
		det.Outcomes = append(det.Outcomes, r.Outcome)
		ts := byTenant[r.Tenant]
		switch {
		case r.State == string(serve.StateDone):
			ts.Done++
			doneTotal++
			if r.CacheHit {
				ts.CacheHits++
			}
		case terminal[r.State]:
			ts.Failed++
		default:
			ts.Failed++
			if r.Status == 429 {
				ts.Rejected429++
			}
			key := "transport"
			if r.Status != 0 {
				key = fmt.Sprintf("%d", r.Status)
			}
			errs[key]++
			if r.State == "wait_error" {
				det.Lost++ // accepted but never seen terminal
			}
		}
		if r.id != "" {
			if ids[r.id] {
				det.Duplicated++
			}
			ids[r.id] = true
		}
	}

	snap := reg.Snapshot()
	for name, ts := range byTenant {
		sh := snap.Histograms[obs.WithLabel("load.submit_ms", "tenant", name)]
		eh := snap.Histograms[obs.WithLabel("load.e2e_ms", "tenant", name)]
		ts.SubmitP50MS, ts.SubmitP99MS = sh.Quantile(0.50), sh.Quantile(0.99)
		ts.E2EP50MS, ts.E2EP99MS = eh.Quantile(0.50), eh.Quantile(0.99)
	}
	fairness(all, byTenant)

	obsv := Observed{
		DurationMS:    durMS,
		ClientRetries: snap.Counters["client.retries"],
		BreakerOpens:  snap.Counters["client.breaker_open"],
		RetryGiveUps:  snap.Counters["client.retry_give_up"],
	}
	if durMS > 0 {
		obsv.ThroughputJPS = float64(doneTotal) / (durMS / 1000)
	}
	if len(errs) > 0 {
		obsv.Errors = errs
	}
	for _, t := range cfg.Tenants { // config order keeps the table stable
		ts := byTenant[t.Name]
		obsv.Tenants = append(obsv.Tenants, *ts)
		if ts.Deviation > obsv.MaxFairnessDeviation {
			obsv.MaxFairnessDeviation = ts.Deviation
		}
	}
	return &Report{Deterministic: det, Observed: obsv}
}

// fairness measures per-tenant throughput shares inside the contention
// window — up to the earliest moment some tenant ran out of backlog
// (its last job start). While every tenant still has queued work, DRR
// shares must track the configured weights; after a tenant drains, the
// survivors legitimately absorb its slots, so later starts are noise.
func fairness(all []result, byTenant map[string]*TenantStats) {
	type startRec struct {
		tenant string
		at     time.Time
	}
	var starts []startRec
	last := map[string]time.Time{}
	for _, r := range all {
		if r.started == nil {
			continue
		}
		starts = append(starts, startRec{r.Tenant, *r.started})
		if r.started.After(last[r.Tenant]) {
			last[r.Tenant] = *r.started
		}
	}
	if len(last) < 2 {
		return // one busy tenant: nothing to share
	}
	var cutoff time.Time
	first := true
	for _, t := range last {
		if first || t.Before(cutoff) {
			cutoff = t
			first = false
		}
	}
	total, weightTotal := 0, 0
	for _, s := range starts {
		if !s.at.After(cutoff) {
			byTenant[s.tenant].StartedInWindow++
			total++
		}
	}
	for name := range last {
		weightTotal += byTenant[name].Weight
	}
	if total == 0 || weightTotal == 0 {
		return
	}
	for name := range last {
		ts := byTenant[name]
		ts.Share = float64(ts.StartedInWindow) / float64(total)
		ts.WeightShare = float64(ts.Weight) / float64(weightTotal)
		if ts.WeightShare > 0 {
			ts.Deviation = abs(ts.Share-ts.WeightShare) / ts.WeightShare
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
