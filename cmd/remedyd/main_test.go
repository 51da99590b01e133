package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/synth"
)

// startServer runs remedyd on an ephemeral port and returns a client
// plus a stop func that triggers graceful shutdown and waits for run
// to return.
func startServer(t *testing.T, extraArgs ...string) (*serve.Client, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	ready = addrCh
	t.Cleanup(func() { ready = nil })

	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, io.Discard) }()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	var stopOnce sync.Once
	var stopErr error
	stop := func() error {
		stopOnce.Do(func() {
			cancel()
			select {
			case stopErr = <-done:
			case <-time.After(10 * time.Second):
				stopErr = context.DeadlineExceeded
			}
		})
		return stopErr
	}
	t.Cleanup(func() { _ = stop() })
	return serve.NewClient("http://" + addr), stop
}

// TestServeEndToEnd boots the real binary entry point, pushes a
// dataset and an identify job through it over TCP, and shuts it down
// gracefully.
func TestServeEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, stop := startServer(t, "-workers", "2", "-queue", "8")

	d := synth.CompasN(500, 1)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadDataset(ctx, &buf, "compas", "two_year_recid", []string{"age", "race", "sex"})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.SubmitJob(ctx, serve.JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	var res serve.IdentifyResult
	if err := c.Result(ctx, st.ID, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) == 0 {
		t.Fatal("no regions identified")
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The listener is really gone.
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-no-such-flag"}, &buf)
	if err == nil {
		t.Fatal("bad flag must error")
	}
	if !strings.Contains(buf.String(), "Usage") && !strings.Contains(buf.String(), "flag") {
		t.Fatalf("usage not printed: %q", buf.String())
	}
}

func TestRunBadAddr(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, io.Discard)
	if err == nil {
		t.Fatal("unbindable address must error")
	}
}

// TestServeDataDirSurvivesRestart boots remedyd with -data-dir, runs a
// job to completion, restarts on the same directory, and checks the
// dataset and the finished job's result both survived the restart.
func TestServeDataDirSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c, stop := startServer(t, "-workers", "1", "-data-dir", dir)

	d := synth.CompasN(300, 1)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadDataset(ctx, &buf, "compas", "two_year_recid", []string{"age", "race", "sex"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(ctx, serve.JobRequest{Kind: "identify", DatasetID: info.ID})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || st.State != serve.StateDone {
		t.Fatalf("first run: job = %+v, err = %v", st, err)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	c2, stop2 := startServer(t, "-workers", "1", "-data-dir", dir)
	defer stop2() // second shutdown outcome is not under test
	d2, err := c2.Dataset(ctx, info.ID)
	if err != nil {
		t.Fatalf("dataset lost across restart: %v", err)
	}
	if d2.Rows != info.Rows {
		t.Fatalf("recovered dataset has %d rows, want %d", d2.Rows, info.Rows)
	}
	got, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job history lost across restart: %v", err)
	}
	if got.State != serve.StateDone {
		t.Fatalf("recovered job state = %s, want done", got.State)
	}
}
