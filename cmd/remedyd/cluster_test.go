package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/synth"
)

// reservePort grabs an ephemeral port and releases it: a fleet roster
// must name every node's address before any node starts listening.
// The gap between release and rebind is a real (tiny) race; the test
// fails loudly, not subtly, if the port is snatched.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// startClusterNode boots one fleet member through the real entry
// point and returns a kill func (cancel + wait) that reports run's
// exit error.
func startClusterNode(t *testing.T, id, addr, dir, peers string) func() error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			// Heartbeats every 10ms with a 25-tick lease: wide enough that
			// scheduler jitter under -race cannot fake a silent leader, and
			// still a sub-second failover when one really dies.
			"-addr", addr, "-workers", "1", "-data-dir", dir,
			"-node-id", id, "-peers", peers, "-lease", "25", "-tick", "10ms",
		}, io.Discard)
	}()
	var stopErr error
	stopped := false
	stop := func() error {
		if stopped {
			return stopErr
		}
		stopped = true
		cancel()
		select {
		case stopErr = <-done:
		case <-time.After(15 * time.Second):
			stopErr = context.DeadlineExceeded
		}
		return stopErr
	}
	t.Cleanup(func() { _ = stop() }) // exit already checked where it matters
	return stop
}

// waitLive polls a node's liveness until it answers.
func waitLive(t *testing.T, c *serve.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Livez(context.Background()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeClusterFailover boots a two-node fleet through the real
// binary entry point: traffic sent to the follower lands on the
// leader, and when the leader process dies the follower promotes
// itself and still holds the replicated job history.
func TestServeClusterFailover(t *testing.T) {
	ctx := context.Background()
	addrA, addrB := reservePort(t), reservePort(t)
	peers := "node-a=http://" + addrA + ",node-b=http://" + addrB

	stopA := startClusterNode(t, "node-a", addrA, t.TempDir(), peers)
	startClusterNode(t, "node-b", addrB, t.TempDir(), peers)

	policy := serve.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	cA := serve.NewRetryingClient("http://"+addrA, policy)
	cB := serve.NewRetryingClient("http://"+addrB, policy)
	waitLive(t, cA)
	waitLive(t, cB)

	// node-a (lowest ID, fresh fleet) bootstraps itself leader; node-b
	// follows and forwards. The upload and job below go to node-b but
	// must run on node-a.
	d := synth.CompasN(300, 1)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var info serve.DatasetInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		payload := bytes.NewReader(buf.Bytes())
		info, err = cB.UploadDataset(ctx, payload, "compas", "two_year_recid", []string{"age", "race", "sex"})
		if err == nil {
			break
		}
		// The follower forwards only once a heartbeat has taught it who
		// leads; until then it answers 503.
		if time.Now().After(deadline) {
			t.Fatalf("upload via follower never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, err := cB.SubmitJob(ctx, serve.JobRequest{Kind: "train", DatasetID: info.ID, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cB.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || st.State != serve.StateDone {
		t.Fatalf("job via follower: %+v, %v", st, err)
	}
	if _, err := cA.Job(ctx, st.ID); err != nil {
		t.Fatalf("job did not land on the leader: %v", err)
	}

	// The job's final "done" record rides node-a's next replication
	// tick. Hold the kill until node-b has acked the whole log —
	// otherwise the record legitimately dies with node-a and the
	// history check below races the heartbeat interval.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var cs struct {
			Seq   uint64            `json:"seq"`
			Acked map[string]uint64 `json:"acked"`
		}
		resp, err := http.Get("http://" + addrA + "/cluster/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&cs)
			_ = resp.Body.Close()
		}
		if err == nil && cs.Seq > 0 && cs.Acked["node-b"] == cs.Seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up to the leader's log")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the leader. Within a few lease ticks node-b promotes itself
	// and starts answering ready; the finished job's history rode the
	// replicated journal.
	if err := stopA(); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		if _, err := cB.Readyz(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never promoted after leader death")
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, err := cB.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job history lost in failover: %v", err)
	}
	if got.State != serve.StateDone {
		t.Fatalf("replicated job state = %s, want done", got.State)
	}
}

// TestClusterFlagValidation pins the startup contract: a fleet member
// must be durable and must appear in its own roster.
func TestClusterFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"node-id without data-dir", []string{"-node-id", "a", "-peers", "a=http://x"}},
		{"peers without node-id", []string{"-peers", "a=http://x"}},
		{"roster missing self", []string{"-node-id", "b", "-data-dir", t.TempDir(), "-peers", "a=http://x"}},
		{"malformed roster entry", []string{"-node-id", "a", "-data-dir", t.TempDir(), "-peers", "nourl"}},
		{"duplicate roster entry", []string{"-node-id", "a", "-data-dir", t.TempDir(), "-peers", "a=http://x,a=http://y"}},
	}
	for _, tc := range cases {
		if err := run(context.Background(), tc.args, io.Discard); err == nil {
			t.Errorf("%s: run accepted bad flags", tc.name)
		}
	}
}
