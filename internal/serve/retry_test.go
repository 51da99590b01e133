package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// flakyHandler fails the first n requests with status, then succeeds.
func flakyHandler(n int, status int) (*atomic.Int64, http.Handler) {
	var hits atomic.Int64
	return &hits, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			http.Error(w, "transient", status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"status":"ok"}`)); err != nil {
			panic(err) // test handler; unreachable
		}
	})
}

func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestRetryAbsorbsTransientFailures(t *testing.T) {
	for _, status := range []int{429, 500, 502, 503} {
		hits, h := flakyHandler(2, status)
		srv := httptest.NewServer(h)
		c := NewRetryingClient(srv.URL, fastPolicy())
		if _, err := c.Health(context.Background()); err != nil {
			t.Errorf("status %d: Health after retries: %v", status, err)
		}
		if got := hits.Load(); got != 3 {
			t.Errorf("status %d: server saw %d requests, want 3", status, got)
		}
		srv.Close()
	}
}

func TestRetryStopsOnNonRetryableStatus(t *testing.T) {
	hits, h := flakyHandler(100, http.StatusNotFound)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := NewRetryingClient(srv.URL, fastPolicy())
	_, err := c.Job(context.Background(), "job-000001")
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want a 404 apiError", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 404, want 1 (no retries)", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	hits, h := flakyHandler(100, http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	p := fastPolicy()
	p.MaxAttempts = 3
	var notices []RetryInfo
	p.OnRetry = func(info RetryInfo) { notices = append(notices, info) }
	c := NewRetryingClient(srv.URL, p)
	_, err := c.Health(context.Background())
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the final 503", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want the full budget of 3", got)
	}
	if len(notices) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2 (between the 3 attempts)", len(notices))
	}
	for i, info := range notices {
		if info.Attempt != i+1 || info.MaxAttempts != 3 || info.Status != 503 {
			t.Errorf("notice %d = %+v, want attempt %d/3 at status 503", i, info, i+1)
		}
	}
}

func TestBackoffDeterministicAndRetryAfterAware(t *testing.T) {
	p := fastPolicy().withDefaults()
	a := NewRetryingClient("http://unused", p)
	b := NewRetryingClient("http://unused", p)
	for attempt := 1; attempt <= 4; attempt++ {
		da := a.backoff(p, attempt, &apiError{Status: 503})
		db := b.backoff(p, attempt, &apiError{Status: 503})
		if da != db {
			t.Fatalf("attempt %d: same-seed clients backed off %v vs %v", attempt, da, db)
		}
		base := p.BaseDelay << (attempt - 1)
		if base > p.MaxDelay {
			base = p.MaxDelay
		}
		if da < base/2 || da > base {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, da, base/2, base)
		}
	}
	// A server Retry-After longer than the computed backoff wins.
	long := &apiError{Status: 429, RetryAfter: 3 * time.Second}
	if got := a.backoff(p, 1, long); got != 3*time.Second {
		t.Fatalf("backoff with Retry-After 3s = %v, want 3s", got)
	}
}

func TestRetryAfterHeaderParsed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := NewClient(srv.URL) // single attempt: inspect the error
	_, err := c.Health(context.Background())
	var ae *apiError
	if !errors.As(err, &ae) || ae.RetryAfter != 7*time.Second {
		t.Fatalf("err = %#v, want apiError carrying Retry-After 7s", err)
	}
}

func TestSubmitIdempotencyKeyDeterministic(t *testing.T) {
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := readJSONBody(r, &req); err != nil {
			t.Error(err)
		}
		keys = append(keys, req.IdempotencyKey)
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "job-000001"})
	}))
	defer srv.Close()
	req := JobRequest{Kind: "identify", DatasetID: "ds-x"}
	a := NewRetryingClient(srv.URL, fastPolicy())
	b := NewRetryingClient(srv.URL, fastPolicy())
	if _, err := a.SubmitJob(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubmitJob(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] == "" || !strings.HasPrefix(keys[0], "ck-") {
		t.Fatalf("captured keys %q, want two generated ck- keys", keys)
	}
	if keys[0] != keys[1] {
		t.Fatalf("same-seed clients generated different first keys: %q vs %q", keys[0], keys[1])
	}
	// A caller-supplied key is never overwritten.
	req.IdempotencyKey = "mine"
	if _, err := a.SubmitJob(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if keys[2] != "mine" {
		t.Fatalf("caller key overwritten with %q", keys[2])
	}
}

func readJSONBody(r *http.Request, out any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(out)
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	release := make(chan struct{})
	probeIn := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("probe") == "" && !fail.Load() {
			writeJSON(w, http.StatusOK, Health{Status: "ok"})
			return
		}
		if r.URL.Query().Get("probe") != "" {
			probeIn <- struct{}{}
			<-release
		}
		if fail.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, Health{Status: "ok"})
	}))
	defer srv.Close()

	p := RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, BreakerThreshold: 2}
	c := NewRetryingClient(srv.URL, p)
	ctx := context.Background()

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Health(ctx); err == nil {
			t.Fatal("expected failure while the server is down")
		}
	}
	// The next request is the half-open probe; park it in the handler
	// and verify a concurrent request fails fast without touching the
	// network.
	probeErr := make(chan error, 1)
	go func() {
		err := c.do(ctx, http.MethodGet, "/healthz?probe=1", nil, nil)
		probeErr <- err
	}()
	<-probeIn
	if _, err := c.Health(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("concurrent call during probe: err = %v, want ErrCircuitOpen", err)
	}
	fail.Store(false)
	close(release)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	// Probe success closed the breaker: normal traffic flows again.
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("post-recovery request: %v", err)
	}
}

func TestRetryNoGoroutineLeakOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	before := runtime.NumGoroutine()

	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 30 * time.Second}
	for i := 0; i < 5; i++ {
		c := NewRetryingClient(srv.URL, p)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.Health(ctx)
			done <- err
		}()
		// Let the first attempt fail and the client park in its long
		// backoff, then cancel: the call must return promptly with the
		// context error, not sleep out the timer.
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled retry returned %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled retry did not return; backoff timer ignored the context")
		}
	}

	// Idle keep-alive connections hold pool goroutines on both sides;
	// drain them so the count below reflects only the retry machinery.
	srv.CloseClientConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientDoFaultPointAbsorbedByRetries(t *testing.T) {
	hits, h := flakyHandler(0, 0)
	srv := httptest.NewServer(h)
	defer srv.Close()
	var fired atomic.Int64
	faults.Set(faults.ClientDo, func(arg any) error {
		if fired.Add(1) <= 2 {
			return errors.New("injected transport failure")
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ClientDo) })

	c := NewRetryingClient(srv.URL, fastPolicy())
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health with injected transport failures: %v", err)
	}
	if fired.Load() != 3 {
		t.Fatalf("fault point fired %d times, want 3 (one per attempt)", fired.Load())
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (injected failures never reach the wire)", hits.Load())
	}
}
