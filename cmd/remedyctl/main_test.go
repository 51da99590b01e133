package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

func TestLoadBuiltin(t *testing.T) {
	d, err := load("", "", "", "propublica", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != synth.CompasSize {
		t.Fatalf("rows = %d", d.Len())
	}
	if _, err := load("", "", "", "bogus", 1); err == nil {
		t.Fatal("unknown builtin must error")
	}
}

func TestLoadCSVRequiresFlags(t *testing.T) {
	if _, err := load("some.csv", "", "", "", 1); err == nil {
		t.Fatal("-input without -target/-protected must error")
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "compas.csv")
	d := synth.CompasN(500, 2)
	if err := d.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := load(path, "two_year_recid", "age,race,sex", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 500 {
		t.Fatalf("rows = %d", got.Len())
	}
	if len(got.Schema.ProtectedIdx()) != 3 {
		t.Fatal("protected attributes not applied")
	}
}

// silenceStdout redirects the handlers' stdout chatter to /dev/null for
// the duration of the test.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })
}

func TestRunIdentifyAndRemedy(t *testing.T) {
	silenceStdout(t)
	ctx := context.Background()

	d := synth.CompasN(2000, 3)
	cfg := core.Config{TauC: 0.1, T: 1}
	if err := runIdentify(ctx, d, cfg, false); err != nil {
		t.Fatal(err)
	}
	if err := runIdentify(ctx, d, cfg, true); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "repaired.csv")
	if err := runRemedy(ctx, d, cfg, "MS", out, 1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("remedy output not written: %v", err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := runAudit(ctx, d, cfg, "PS", "DT", modelPath, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not saved: %v", err)
	}
}

// TestRunErrorPaths drives the full CLI entry point through its
// configuration failures: each must be rejected up front, before any
// identification or remediation work starts.
func TestRunErrorPaths(t *testing.T) {
	silenceStdout(t)
	ctx := context.Background()

	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"bad technique", []string{"-mode", "remedy", "-technique", "XX"}, "technique"},
		{"bad scope", []string{"-mode", "identify", "-scope", "sideways"}, "scope"},
		{"missing target", []string{"-mode", "identify", "-input", "some.csv"}, "-target"},
		{"bad mode", []string{"-mode", "frobnicate", "-dataset", "propublica"}, "mode"},
		{"bad model kind", []string{"-mode", "audit", "-dataset", "propublica", "-model", "XGB"}, "unknown model"},
		{"bad flag", []string{"-no-such-flag"}, "flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(ctx, tc.argv, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tc.argv)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want mention of %q", tc.argv, err, tc.want)
			}
		})
	}
}

// TestRunRemedyRejectsUnwritableOutput asserts the -output path is
// validated before the remediation runs.
func TestRunRemedyRejectsUnwritableOutput(t *testing.T) {
	silenceStdout(t)
	out := filepath.Join(t.TempDir(), "no", "such", "dir", "out.csv")
	err := run(context.Background(), []string{"-mode", "remedy", "-dataset", "propublica", "-output", out}, io.Discard)
	if err == nil {
		t.Fatal("unwritable -output must error")
	}
	if !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("err = %q, want upfront writability failure", err)
	}
}

// TestRunObservabilityDump is the acceptance run for the obs layer: a
// full audit on the synthetic Adult dataset with -vv -trace-out
// -metrics-out must leave a span tree covering identify, remedy,
// train, and audit, and non-zero work counters.
func TestRunObservabilityDump(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	err := run(context.Background(), []string{
		"-mode", "audit", "-dataset", "adult", "-vv",
		"-trace-out", tracePath, "-metrics-out", metricsPath,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []obs.SpanSnapshot }
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	var rootID uint64
	for _, s := range trace.Spans {
		byName[s.Name]++
		if s.Unfinished {
			t.Fatalf("completed run left unfinished span %q", s.Name)
		}
		if s.Name == "remedyctl.audit" {
			rootID = s.ID
			if s.Parent != 0 {
				t.Fatal("root span must have no parent")
			}
		}
	}
	if rootID == 0 {
		t.Fatal("no remedyctl.audit root span")
	}
	// Every pipeline stage must appear in the tree.
	for _, want := range []string{"core.identify.node", "remedy.apply", "remedy.region", "ml.train", "divexplorer.explore"} {
		if byName[want] == 0 {
			t.Fatalf("span tree missing stage %q (have %v)", want, byName)
		}
	}
	if byName["ml.train"] != 2 {
		t.Fatalf("audit trains original + remedied, want 2 ml.train spans, got %d", byName["ml.train"])
	}

	raw, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	for _, c := range []string{"identify.nodes_visited", "identify.regions_flagged", "remedy.samples_added", "divexplorer.itemsets"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s is zero after a full audit (have %v)", c, snap.Counters)
		}
	}
}

// TestRunRemedyCancelled asserts a cancelled context aborts the remedy
// pipeline with context.Canceled and prints the partial report.
func TestRunRemedyCancelled(t *testing.T) {
	silenceStdout(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var errbuf strings.Builder
	err := run(ctx, []string{"-mode", "remedy", "-dataset", "propublica"}, &errbuf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run under cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestRunServeURL drives the -serve-url client mode against an
// in-process remedyd: the CLI uploads the dataset, submits the job,
// polls to completion, and prints the JSON result.
func TestRunServeURL(t *testing.T) {
	silenceStdout(t)
	ctx := context.Background()
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})

	csvPath := filepath.Join(t.TempDir(), "compas.csv")
	if err := synth.CompasN(800, 4).WriteCSVFile(csvPath); err != nil {
		t.Fatal(err)
	}
	common := []string{
		"-serve-url", hs.URL, "-poll", "5ms",
		"-input", csvPath, "-target", "two_year_recid", "-protected", "age,race,sex",
	}
	for _, mode := range []string{"identify", "remedy"} {
		if err := run(ctx, append([]string{"-mode", mode}, common...), io.Discard); err != nil {
			t.Fatalf("remote %s: %v", mode, err)
		}
	}

	// Modes without a remote counterpart are rejected up front.
	err := run(ctx, append([]string{"-mode", "train"}, common...), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-serve-url supports") {
		t.Fatalf("remote train = %v, want unsupported-mode error", err)
	}

	// A dead server surfaces the transport error, not a hang.
	err = run(ctx, []string{"-mode", "identify", "-serve-url", "http://127.0.0.1:1",
		"-input", csvPath, "-target", "two_year_recid", "-protected", "age,race,sex"}, io.Discard)
	if err == nil {
		t.Fatal("unreachable server must error")
	}
}

// TestRunServeURLRetriesQueueFull fakes a remedyd whose queue is full
// for the first two submissions: the CLI must log "queue full,
// retrying (attempt n/k)" and still succeed, and a server that never
// recovers must surface the final 429 after the retry budget.
func TestRunServeURLRetriesQueueFull(t *testing.T) {
	silenceStdout(t)
	var submits int
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Error(err)
		}
	}
	mux.HandleFunc("POST /datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, serve.DatasetInfo{ID: "ds-1", Target: "two_year_recid", Rows: 10})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if submits++; submits <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			writeJSON(w, map[string]string{"error": "job queue full"})
			return
		}
		writeJSON(w, serve.JobStatus{ID: "job-000001", State: serve.StateQueued})
	})
	mux.HandleFunc("GET /jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, serve.JobStatus{ID: "job-000001", State: serve.StateDone})
	})
	mux.HandleFunc("GET /jobs/job-000001/result", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"regions": []any{}})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	csvPath := filepath.Join(t.TempDir(), "compas.csv")
	if err := synth.CompasN(50, 4).WriteCSVFile(csvPath); err != nil {
		t.Fatal(err)
	}
	args := []string{"-mode", "identify", "-serve-url", hs.URL, "-poll", "5ms",
		"-input", csvPath, "-target", "two_year_recid", "-protected", "age,race,sex"}
	var errbuf strings.Builder
	if err := run(context.Background(), args, &errbuf); err != nil {
		t.Fatalf("run with transient 429s: %v (log: %s)", err, errbuf.String())
	}
	if !strings.Contains(errbuf.String(), "queue full, retrying") ||
		!strings.Contains(errbuf.String(), "1/4") {
		t.Fatalf("missing queue-full retry lines in log:\n%s", errbuf.String())
	}

	// Never recovers: the run fails with the final 429 only after the
	// whole budget is spent.
	submits = -1000
	errbuf.Reset()
	err := run(context.Background(), args, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhausted retries = %v, want the final 429", err)
	}
}
