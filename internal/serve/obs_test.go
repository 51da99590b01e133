package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Tests for the fleet-observability surfaces owned by the serve layer:
// trace adoption on forwarded submissions, deterministic trace minting
// on the forwarding hop, the Prometheus exposition of /metrics, the
// per-route instrumentation, and the slow-job log.

func TestForwardedSubmissionAdoptsTraceAndRecordsEvent(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4, NodeID: "node-l"})
	info := uploadCompas(t, c, 120, 7)

	// Simulate what a forwarding follower sends: the job submission
	// with the trace identity it minted and the forwarding marker. The
	// leader must adopt the incoming trace ID instead of minting its
	// own, and the submit span must carry a "forwarded" event naming
	// the relay hop.
	body := strings.NewReader(`{"kind":"train","dataset_id":"` + info.ID + `"}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Remedy-Forwarded", "node-f")
	obs.InjectHTTP(req.Header, obs.TraceContext{TraceID: "node-f/fwd-000001"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := decodeInto(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("forwarded job: %+v, %v", st, err)
	}

	doc, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != "node-f/fwd-000001" {
		t.Fatalf("trace ID = %q, want the forwarded hop's %q", doc.TraceID, "node-f/fwd-000001")
	}
	var forwarded bool
	for _, sp := range doc.Spans {
		if sp.Name != "serve.submit" {
			continue
		}
		for _, ev := range sp.Events {
			if ev.Name == "forwarded" && strings.Contains(ev.Attr, "node-f") {
				forwarded = true
			}
		}
	}
	if !forwarded {
		t.Fatalf("submit span has no forwarded event naming node-f: %+v", doc.Spans)
	}
}

func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// fwdView is a minimal ClusterView fake: always a follower of a fixed
// leader URL.
type fwdView struct{ leader string }

func (v fwdView) Role() (string, uint64, string) { return "follower", 1, "node-l" }
func (v fwdView) LeaderURL() string              { return v.leader }

func TestForwardMintsDeterministicTraceID(t *testing.T) {
	var mu sync.Mutex
	var traceIDs, vias []string
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traceIDs = append(traceIDs, r.Header.Get(obs.HeaderTraceID))
		vias = append(vias, r.Header.Get("X-Remedy-Forwarded"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	defer leader.Close()

	srv, c := newTestServer(t, Config{Workers: 1, NodeID: "node-f"})
	srv.SetCluster(fwdView{leader: leader.URL})

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Job(ctx, "job-000001"); err != nil {
			t.Fatalf("forwarded call %d: %v", i, err)
		}
	}
	// A client that already carries a trace keeps it through the hop.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs/job-000001", nil)
	if err != nil {
		t.Fatal(err)
	}
	obs.InjectHTTP(req.Header, obs.TraceContext{TraceID: "client/abc"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"node-f/fwd-000001", "node-f/fwd-000002", "client/abc"}
	if len(traceIDs) != 3 {
		t.Fatalf("leader saw %d forwards, want 3", len(traceIDs))
	}
	for i, id := range traceIDs {
		if id != want[i] {
			t.Fatalf("forward %d trace ID = %q, want deterministic %q", i, id, want[i])
		}
		if vias[i] != "node-f" {
			t.Fatalf("forward %d missing forwarding marker: %q", i, vias[i])
		}
	}
}

func TestMetricsPromExposition(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{
		"# TYPE serve_http_requests counter",
		// The per-route middleware: the /healthz probe above is counted
		// under its route pattern and status class.
		`serve_http_requests_total{route="GET /healthz",status="2xx"} 1`,
		`serve_http_duration_ms_bucket{route="GET /healthz",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestPerRouteInstrumentationBoundsCardinality(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	// Many distinct job IDs must collapse into one route series — the
	// label is the mux pattern, not the raw URL.
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		_, _ = c.Job(ctx, id) // 404s are fine; only the route accounting matters
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[`serve.http_requests_total{route="GET /jobs/{id}",status="4xx"}`]; got != 3 {
		t.Fatalf("route series count = %d, want 3 collapsed onto the pattern (counters: %v)", got, snap.Counters)
	}
	if h, ok := snap.Histograms[`serve.http_duration_ms{route="GET /jobs/{id}"}`]; !ok || h.Count != 3 {
		t.Fatalf("route histogram = %+v ok=%v, want 3 observations", h, ok)
	}
	if g, ok := snap.Gauges[`serve.http_inflight{route="GET /jobs/{id}"}`]; !ok || g != 0 {
		t.Fatalf("inflight gauge = %v ok=%v, want 0 after requests drain", g, ok)
	}
}

// lockedBuf is an io.Writer safe to read while the engine's worker
// goroutines are still logging.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestSlowJobLogNamesSpans(t *testing.T) {
	var buf lockedBuf
	srv, c := newTestServer(t, Config{
		Workers:          1,
		SlowJobThreshold: time.Nanosecond, // every job is slow
		Logger:           obs.NewLogger(&buf, obs.LevelWarn),
	})
	ctx := context.Background()
	info := uploadCompas(t, c, 120, 7)
	st, err := c.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}

	if got := srv.Metrics().Snapshot().Counters["serve.jobs_slow"]; got != 1 {
		t.Fatalf("jobs_slow = %d, want 1", got)
	}
	out := buf.String()
	if !strings.Contains(out, "slow job") || !strings.Contains(out, st.ID) {
		t.Fatalf("slow-job warning missing:\n%s", out)
	}
	// The breakdown: at least one finished span logged with its timing.
	if !strings.Contains(out, "slow job span") || !strings.Contains(out, "duration_us") {
		t.Fatalf("slow-job span breakdown missing:\n%s", out)
	}

	// Threshold 0 disables the log entirely.
	var quiet lockedBuf
	_, c2 := newTestServer(t, Config{Workers: 1, Logger: obs.NewLogger(&quiet, obs.LevelWarn)})
	info2 := uploadCompas(t, c2, 120, 7)
	st2, err := c2.SubmitJob(ctx, JobRequest{Kind: "identify", DatasetID: info2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c2.Wait(ctx, st2.ID, 5*time.Millisecond); err != nil || st2.State != StateDone {
		t.Fatalf("job: %+v, %v", st2, err)
	}
	if strings.Contains(quiet.String(), "slow job") {
		t.Fatalf("slow-job log fired with threshold 0:\n%s", quiet.String())
	}
}
