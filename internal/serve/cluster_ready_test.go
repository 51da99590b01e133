package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
)

// Tests for the liveness/readiness split, the not-ready-as-backpressure
// client behavior, and the bounded idempotency-key table.

func TestLivezReadyzSplit(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// Ready by default: both probes answer 200.
	if err := c.Livez(ctx); err != nil {
		t.Fatalf("livez on ready server: %v", err)
	}
	h, err := c.Readyz(ctx)
	if err != nil || !h.Ready {
		t.Fatalf("readyz on ready server: %+v, %v", h, err)
	}

	srv.SetNotReady("replaying journal")

	// Liveness is unaffected; readiness is a 503 carrying the reason
	// and a Retry-After hint.
	if err := c.Livez(ctx); err != nil {
		t.Fatalf("livez on not-ready server: %v", err)
	}
	_, err = c.Readyz(ctx)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("readyz on not-ready server: %v, want 503", err)
	}
	if ae.RetryAfter != time.Second {
		t.Fatalf("readyz Retry-After = %v, want 1s", ae.RetryAfter)
	}

	// API traffic is gated the same way; /healthz still answers 200
	// with the detail.
	_, err = c.Job(ctx, "job-000001")
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.RetryAfter != time.Second {
		t.Fatalf("API call on not-ready server: %v, want 503 + Retry-After", err)
	}
	hh, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("healthz on not-ready server: %v", err)
	}
	if hh.Ready || hh.Reason != "replaying journal" {
		t.Fatalf("healthz body = %+v, want ready=false reason=replaying journal", hh)
	}

	srv.SetReady()
	if h, err := c.Readyz(ctx); err != nil || !h.Ready {
		t.Fatalf("readyz after SetReady: %+v, %v", h, err)
	}
}

// TestClientTreatsNotReadyLike429 is the satellite contract: a node
// that answers 503 not-ready must look like backpressure to the
// retrying client — backed off and retried, not failed.
func TestClientTreatsNotReadyLike429(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	srv.SetNotReady("no current term")

	var hits atomic.Int32
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 2 {
			srv.SetReady() // the node finishes its replay mid-retry-loop
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer counting.Close()

	c := NewRetryingClient(counting.URL, fastPolicy())
	if _, err := c.Job(context.Background(), "job-missing"); err != nil {
		// 404 is the *ready* answer: the request got through once the
		// node came up. Any 503-shaped error means the retry loop gave up
		// on not-ready, which is the regression this test guards.
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
			t.Fatalf("request against waking server: %v, want eventual 404", err)
		}
	}
	if got := hits.Load(); got < 2 {
		t.Fatalf("server saw %d requests, want at least 2 (a retry after not-ready)", got)
	}
}

func TestIdemTableBounded(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 2, QueueDepth: 4, MaxIdemKeys: 8})
	info := uploadCompas(t, c, 200, 7)

	// Far more keyed submissions than the cap, each run to completion.
	for i := 0; i < 40; i++ {
		st, err := c.SubmitJob(ctx, JobRequest{
			Kind: "train", DatasetID: info.ID,
			IdempotencyKey: fmt.Sprintf("bounded-%03d", i),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %s %v (%s)", i, st.State, err, st.Error)
		}
	}

	srv.engine.mu.Lock()
	size, order := len(srv.engine.idem), len(srv.engine.idemOrder)
	srv.engine.mu.Unlock()
	if size > 8 {
		t.Fatalf("idem table holds %d keys after 40 terminal jobs, cap is 8", size)
	}
	if order > 8 {
		t.Fatalf("idemOrder holds %d entries, cap is 8", order)
	}
	if got := srv.Metrics().Snapshot().Counters["serve.idem_keys_evicted"]; got == 0 {
		t.Fatal("no evictions counted despite 40 keys against a cap of 8")
	}
}

// TestIdemTableNeverEvictsLiveKeys pins the safety half of the bound:
// a key whose job is still in flight survives any amount of eviction
// pressure, so retried submissions keep deduping onto it.
func TestIdemTableNeverEvictsLiveKeys(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxIdemKeys: 2})
	info := uploadCompas(t, c, 200, 7)

	release := make(chan struct{})
	var blocked sync.Once
	ready := make(chan struct{})
	faults.Set(faults.ServeJob, func(any) error {
		blocked.Do(func() { close(ready) })
		<-release
		return nil
	})
	t.Cleanup(func() { close(release); faults.Clear(faults.ServeJob) })

	live, err := c.SubmitJob(ctx, JobRequest{
		Kind: "train", DatasetID: info.ID, IdempotencyKey: "live-key",
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ready // the live job is on the worker, holding its key

	// Flood the table far past its cap of 2. These jobs queue behind
	// the blocked worker and stay live too — so the table legitimately
	// exceeds the cap — but the point is that "live-key" survives.
	for i := 0; i < 4; i++ {
		if _, err := c.SubmitJob(ctx, JobRequest{
			Kind: "train", DatasetID: info.ID, Seed: int64(i + 2),
			IdempotencyKey: fmt.Sprintf("flood-%d", i),
		}); err != nil {
			t.Fatalf("flood submit %d: %v", i, err)
		}
	}

	dup, err := c.SubmitJob(ctx, JobRequest{
		Kind: "train", DatasetID: info.ID, IdempotencyKey: "live-key",
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != live.ID {
		t.Fatalf("live key stopped deduping under eviction pressure: got %s, want %s", dup.ID, live.ID)
	}
	srv.engine.mu.Lock()
	_, held := srv.engine.idem["live-key"]
	srv.engine.mu.Unlock()
	if !held {
		t.Fatal("live job's idempotency key was evicted")
	}
}

// TestRetryAfterGarbageIgnored pins the Retry-After parse: non-integer
// and negative values are ignored (no crash, no negative sleep), the
// retry loop still runs on its own backoff.
func TestRetryAfterGarbageIgnored(t *testing.T) {
	for _, hdr := range []string{"not-a-number", "-5", "1.5", ""} {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) <= 2 {
				w.Header().Set("Retry-After", hdr)
				w.WriteHeader(http.StatusTooManyRequests)
				_ = json.NewEncoder(w).Encode(errorBody{Error: "busy"})
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		}))
		c := NewRetryingClient(srv.URL, fastPolicy())
		if _, err := c.Health(context.Background()); err != nil {
			t.Errorf("Retry-After %q: Health after retries: %v", hdr, err)
		}
		if got := hits.Load(); got != 3 {
			t.Errorf("Retry-After %q: server saw %d requests, want 3", hdr, got)
		}
		srv.Close()
	}

	// The parsed value itself: garbage and negatives decode to zero.
	for _, hdr := range []string{"junk", "-1"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", hdr)
			w.WriteHeader(http.StatusTooManyRequests)
		}))
		c := NewClient(srv.URL)
		_, err := c.Health(context.Background())
		var ae *apiError
		if !errors.As(err, &ae) {
			t.Fatalf("Retry-After %q: err = %v, want apiError", hdr, err)
		}
		if ae.RetryAfter != 0 {
			t.Errorf("Retry-After %q parsed as %v, want 0", hdr, ae.RetryAfter)
		}
		srv.Close()
	}
}

// TestBreakerConcurrentHalfOpenProbe races many callers at an open
// breaker (run under -race): exactly one may probe at a time, the
// probe's success closes the breaker, and nobody panics or double
// probes. The assertions are structural; the race detector is the
// real judge here.
func TestBreakerConcurrentHalfOpenProbe(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	policy := RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, BreakerThreshold: 3}
	c := NewRetryingClient(srv.URL, policy)
	ctx := context.Background()

	// Trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Health(ctx); err == nil {
			t.Fatal("expected failure while server is down")
		}
	}
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("expected probe failure or fast-fail while breaker open")
	}

	// Server recovers; hammer the half-open breaker from many
	// goroutines. Every outcome must be either a success (a probe got
	// through and closed the breaker) or ErrCircuitOpen (fast-fail
	// while someone else held the probe slot).
	healthy.Store(true)
	before := hits.Load()
	var wg sync.WaitGroup
	var successes, fastFails, unexpected atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Health(ctx)
			switch {
			case err == nil:
				successes.Add(1)
			case errors.Is(err, ErrCircuitOpen):
				fastFails.Add(1)
			default:
				unexpected.Add(1)
			}
		}()
	}
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d callers saw an unexpected error kind", unexpected.Load())
	}
	if successes.Load() == 0 {
		t.Fatal("no caller succeeded: the half-open probe never ran")
	}

	// The breaker is closed now: a fresh call goes straight through.
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("call after breaker closed: %v", err)
	}
	if hits.Load() == before {
		t.Fatal("server never saw the probe")
	}
}

// TestIdemOrderReleasedOnJournalFailure pins the dedup table's
// bookkeeping on the Submit journal-failure path: a key whose
// admission could not be journaled leaves both the table and the
// insertion-order slice, so repeated failures cannot grow idemOrder
// while the table itself stays small.
func TestIdemOrderReleasedOnJournalFailure(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := durable.Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDurable(ctx, Config{Workers: 1, QueueDepth: 8}, store)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
		if err := store.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	c := NewClient(hs.URL)
	info := uploadCompas(t, c, 200, 7)

	// One keyed job that lands durably, as the baseline table entry.
	st, err := c.SubmitJob(ctx, JobRequest{Kind: "train", DatasetID: info.ID, IdempotencyKey: "keeper"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("baseline job: %+v, %v", st, err)
	}

	// The journal refuses every further admission; each keyed submit
	// fails after its key was provisionally inserted.
	faults.Set(faults.JournalAppend, func(arg any) error {
		if rec, ok := arg.(durable.Record); ok && rec.Type == durable.RecSubmit {
			return errors.New("injected: submit append failed")
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.JournalAppend) })
	for i := 0; i < 10; i++ {
		if _, err := c.SubmitJob(ctx, JobRequest{
			Kind: "train", DatasetID: info.ID,
			IdempotencyKey: fmt.Sprintf("leak-%02d", i),
		}); err == nil {
			t.Fatalf("submit %d under failing journal succeeded", i)
		}
	}
	faults.Clear(faults.JournalAppend)

	srv.engine.mu.Lock()
	size, order := len(srv.engine.idem), len(srv.engine.idemOrder)
	srv.engine.mu.Unlock()
	if size != 1 || order != 1 {
		t.Fatalf("idem table = %d keys / %d order entries after 10 failed keyed submissions, want 1/1", size, order)
	}

	// A failed key is fully released: reusing it admits a fresh job
	// instead of deduping onto a submission that never became durable.
	st2, err := c.SubmitJob(ctx, JobRequest{
		Kind: "train", DatasetID: info.ID, IdempotencyKey: "leak-00",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("reused key deduped onto an unrelated job %s", st2.ID)
	}
	if st2, err = c.Wait(ctx, st2.ID, 5*time.Millisecond); err != nil || st2.State != StateDone {
		t.Fatalf("job on reused key: %+v, %v", st2, err)
	}
}
