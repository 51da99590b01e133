package load

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
)

// startServer boots a fresh in-process remedyd with the 3:1 tenant
// split the load mix below targets.
func startServer(t *testing.T) (*serve.Server, string) {
	t.Helper()
	srv := serve.New(serve.Config{
		Workers: 2, QueueDepth: 64,
		Tenants: map[string]serve.TenantConfig{
			"alpha": {Weight: 3},
			"beta":  {Weight: 1},
		},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return srv, hs.URL
}

// gateUntilBacklog holds every worker pickup until all expected
// submissions have been accepted, so the DRR fairness measurement sees
// a full backlog from the first dispatch instead of start-up noise.
func gateUntilBacklog(t *testing.T, srv *serve.Server, expect int64) {
	t.Helper()
	released := make(chan struct{})
	var once sync.Once
	faults.Set(faults.ServeJob, func(any) error {
		<-released
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				once.Do(func() { close(released) }) // unblock workers on teardown
				return
			case <-tick.C:
				if srv.Metrics().Counter("serve.jobs_submitted").Value() >= expect {
					once.Do(func() { close(released) })
					return
				}
			}
		}
	}()
}

func loadMix() []Tenant {
	return []Tenant{
		{Name: "alpha", Weight: 3, Clients: 2, Jobs: 15},
		{Name: "beta", Weight: 1, Clients: 2, Jobs: 8},
	}
}

func runOnce(t *testing.T, seed int64) (*Report, []byte, *serve.Server) {
	t.Helper()
	srv, url := startServer(t)
	mix := loadMix()
	var total int64
	for _, m := range mix {
		total += int64(m.Clients * m.Jobs)
	}
	gateUntilBacklog(t, srv, total)
	rep, err := Run(context.Background(), Config{
		BaseURL: url, Seed: seed, Rows: 300,
		Tenants:         mix,
		RepeatIdentical: true,
		PollInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("load.Run: %v", err)
	}
	b, err := rep.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	return rep, b, srv
}

// TestLoadDeterministic is the load harness's acceptance test: two
// same-seed runs against fresh servers produce byte-identical
// deterministic sections, no job is lost or duplicated, the observed
// per-tenant throughput shares track the 3:1 weights within 20%, and
// the verbatim resubmission is served from the response cache.
func TestLoadDeterministic(t *testing.T) {
	rep1, b1, srv1 := runOnce(t, 42)
	faults.Clear(faults.ServeJob) // re-arm cleanly for the second run
	rep2, b2, _ := runOnce(t, 42)

	if rep2.Deterministic.Seed != 42 {
		t.Fatalf("second run seed = %d", rep2.Deterministic.Seed)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed runs differ:\nrun1: %.600s\nrun2: %.600s", b1, b2)
	}
	det := rep1.Deterministic
	if det.Lost != 0 || det.Duplicated != 0 {
		t.Fatalf("lost=%d duplicated=%d, want 0/0", det.Lost, det.Duplicated)
	}
	if want := 2*15 + 2*8; len(det.Outcomes) != want {
		t.Fatalf("outcomes = %d, want %d", len(det.Outcomes), want)
	}
	for _, o := range det.Outcomes {
		if o.State != "done" || o.ResultSHA == "" {
			t.Fatalf("outcome %s/%d/%d: state %q sha %q", o.Tenant, o.Client, o.Job, o.State, o.ResultSHA)
		}
	}
	if !det.CacheRepeatHit {
		t.Fatal("verbatim resubmission was not served from cache")
	}
	if got := srv1.Metrics().Counter("serve.cache_hits").Value(); got < 1 {
		t.Fatalf("server cache_hits = %d, want >= 1", got)
	}
	if dev := rep1.Observed.MaxFairnessDeviation; dev > 0.20 {
		t.Fatalf("fairness deviation %.3f exceeds 0.20: %+v", dev, rep1.Observed.Tenants)
	}
	if rep1.Observed.ThroughputJPS <= 0 {
		t.Fatalf("throughput = %v, want > 0", rep1.Observed.ThroughputJPS)
	}
	var tbl bytes.Buffer
	if err := rep1.Table().Render(&tbl); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("empty human table")
	}
}

// TestLoadDefaults checks the zero-value config is serviceable: one
// default tenant, 4 clients × 4 jobs, all completing.
func TestLoadDefaults(t *testing.T) {
	_, url := startServer(t)
	rep, err := Run(context.Background(), Config{BaseURL: url, Seed: 7, Rows: 200,
		PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deterministic.Outcomes) != 16 {
		t.Fatalf("outcomes = %d, want 16", len(rep.Deterministic.Outcomes))
	}
	for _, o := range rep.Deterministic.Outcomes {
		if o.State != "done" {
			t.Fatalf("outcome %+v not done", o)
		}
	}
	if rep.Observed.MaxFairnessDeviation != 0 {
		t.Fatalf("single-tenant run should skip the fairness measure, got %v",
			rep.Observed.MaxFairnessDeviation)
	}
}

// TestLoadDuplicateTenant pins the config validation.
func TestLoadDuplicateTenant(t *testing.T) {
	_, err := Run(context.Background(), Config{
		BaseURL: "http://127.0.0.1:0",
		Tenants: []Tenant{{Name: "a", Clients: 1, Jobs: 1}, {Name: "a", Clients: 1, Jobs: 1}},
	})
	if err == nil {
		t.Fatal("duplicate tenant names must be rejected")
	}
}
