package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// rawResult fetches /jobs/{id}/result as raw bytes, bypassing the
// client's JSON decoding so byte-level comparisons see the wire form.
func rawResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, b)
	}
	return b
}

// TestResponseCacheHit submits the same identify request twice: the
// second submission must finish from cache (never started, counted in
// serve.cache_hits) and its result bytes must equal the cold run's
// exactly.
func TestResponseCacheHit(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	info := uploadCompas(t, c, 1500, 7)

	req := JobRequest{Kind: "identify", DatasetID: info.ID, TauC: 0.1, Seed: 3}
	st1, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st1, err = c.Wait(ctx, st1.ID, 0); err != nil || st1.State != StateDone {
		t.Fatalf("cold job: state %s err %v", st1.State, err)
	}
	cold := rawResult(t, c.BaseURL, st1.ID)

	st2, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st1.ID {
		t.Fatalf("second submission returned the first job (no idem key was set)")
	}
	if st2.State != StateDone {
		t.Fatalf("cached submission state = %s, want immediate done", st2.State)
	}
	if st2.StartedAt != nil {
		t.Fatalf("cached job has StartedAt %v, want nil (never ran)", st2.StartedAt)
	}
	warm := rawResult(t, c.BaseURL, st2.ID)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache replay differs from cold run:\ncold: %.200s\nwarm: %.200s", cold, warm)
	}
	if got := srv.Metrics().Counter("serve.cache_hits").Value(); got != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", got)
	}
}

// TestResponseCacheKeyExclusions checks the key covers what affects
// the result and nothing else: a different idempotency key, timeout,
// or tenant still hits; a different seed or dataset misses.
func TestResponseCacheKeyExclusions(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	info := uploadCompas(t, c, 1200, 11)

	base := JobRequest{Kind: "identify", DatasetID: info.ID, Seed: 5}
	st, err := c.SubmitJob(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil || st.State != StateDone {
		t.Fatalf("cold job: %s %v", st.State, err)
	}

	delivery := base
	delivery.IdempotencyKey = "other-key"
	delivery.TimeoutMS = 60000
	delivery.Tenant = "someone-else"
	st2, err := c.SubmitJob(ctx, delivery)
	if err != nil {
		t.Fatal(err)
	}
	if st2.StartedAt != nil || st2.State != StateDone {
		t.Fatalf("delivery-field change missed the cache: state %s started %v", st2.State, st2.StartedAt)
	}

	reseeded := base
	reseeded.Seed = 6
	st3, err := c.SubmitJob(ctx, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if st3, err = c.Wait(ctx, st3.ID, 0); err != nil || st3.State != StateDone {
		t.Fatalf("reseeded job: %s %v", st3.State, err)
	}
	if st3.StartedAt == nil {
		t.Fatal("seed change hit the cache; the seed is result-affecting")
	}
	if got := srv.Metrics().Counter("serve.cache_hits").Value(); got != 1 {
		t.Fatalf("serve.cache_hits = %d, want exactly 1", got)
	}
}

// TestResponseCacheIgnoresWorkers: Workers changes neither the IBS
// nor the checkpoints, so an identify at workers 2 replays the
// workers 0 run from cache, byte for byte.
func TestResponseCacheIgnoresWorkers(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	info := uploadCompas(t, c, 1500, 13)

	req := JobRequest{Kind: "identify", DatasetID: info.ID, TauC: 0.1, MinSize: 20}
	st1, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st1, err = c.Wait(ctx, st1.ID, 0); err != nil || st1.State != StateDone {
		t.Fatalf("cold job: state %s err %v", st1.State, err)
	}
	cold := rawResult(t, c.BaseURL, st1.ID)

	req.Workers = 2
	st2, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || st2.StartedAt != nil {
		t.Fatalf("workers=2 resubmission missed the cache: state %s started %v", st2.State, st2.StartedAt)
	}
	if warm := rawResult(t, c.BaseURL, st2.ID); !bytes.Equal(cold, warm) {
		t.Fatalf("cache replay differs from cold run:\ncold: %.200s\nwarm: %.200s", cold, warm)
	}
	if got := srv.Metrics().Counter("serve.cache_hits").Value(); got != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", got)
	}
}

// TestRemedyNotCached pins the side-effect exclusion: remedy jobs
// register their output dataset, so an identical resubmission must run
// again (and register again), never replay from cache.
func TestRemedyNotCached(t *testing.T) {
	if _, ok := cacheKey(JobRequest{Kind: "remedy", DatasetID: "ds-x"}); ok {
		t.Fatal("remedy requests must not be cacheable")
	}
	for _, kind := range []string{"identify", "train", "audit"} {
		if _, ok := cacheKey(JobRequest{Kind: kind, DatasetID: "ds-x"}); !ok {
			t.Fatalf("%s requests should be cacheable", kind)
		}
	}
}

// TestRespCacheLRU exercises the bounded store directly: capacity 2,
// three inserts, the least-recently-used entry is evicted.
func TestRespCacheLRU(t *testing.T) {
	c := newRespCache(2)
	c.put("a", json.RawMessage(`1`))
	c.put("b", json.RawMessage(`2`))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", json.RawMessage(`3`))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	var nilCache *respCache
	if _, ok := nilCache.get("a"); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.put("a", json.RawMessage(`1`)) // must not panic
	if newRespCache(0) != nil || newRespCache(-1) != nil {
		t.Fatal("non-positive capacity should disable the cache")
	}
}
