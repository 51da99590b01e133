package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/serve"
)

// TestChaosLeaderKilledMidIdentifyFailsOver is the headline fleet
// chaos test. A three-node fleet accepts an identify job; the leader
// is killed mid-run — its journal append hangs and then fails exactly
// where a machine death would strike, after level 1 is checkpointed
// and replicated but before level 2 lands. The fleet must notice the
// silence, promote the first-ranked follower within its lease budget,
// resume the job from the replicated checkpoint, and produce an IBS
// byte-identical to an uninterrupted single-node run — with the job
// completing exactly once (the idempotency key survives the handoff)
// and the old leader fenced off when the partition heals.
func TestChaosLeaderKilledMidIdentifyFailsOver(t *testing.T) {
	ctx := context.Background()

	// Registered first, so it runs after every other cleanup has torn
	// the fleet down: the whole exercise must not leak a goroutine.
	baseGoroutines := runtime.NumGoroutine()
	t.Cleanup(func() { assertNoGoroutineLeak(t, baseGoroutines) })

	req := serve.JobRequest{Kind: "identify", TauC: 0.1, MinSize: 20, IdempotencyKey: "chaos-identify"}

	// Baseline: the same job on a single uninterrupted durable node.
	var baseRaw json.RawMessage
	var baseID string
	{
		store, err := durable.Open(ctx, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewDurable(ctx, serve.Config{Workers: 1, QueueDepth: 8}, store)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				t.Errorf("baseline shutdown: %v", err)
			}
			hs.Close()
			if err := store.Close(); err != nil {
				t.Error(err)
			}
		})
		c := serve.NewClient(hs.URL)
		info := uploadCompas(t, c, 1500, 5)
		baseID = info.ID
		req.DatasetID = info.ID
		st, err := c.SubmitJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || st.State != serve.StateDone {
			t.Fatalf("baseline job: %+v, %v", st, err)
		}
		if err := c.Result(ctx, st.ID, &baseRaw); err != nil {
			t.Fatal(err)
		}
	}

	nodes := fleet(t, []string{"node-a", "node-b", "node-c"}, func(id string, scfg *serve.Config, ccfg *Config) {
		scfg.Workers = 1
	})
	a, b, c := nodes["node-a"], nodes["node-b"], nodes["node-c"]

	info := uploadCompas(t, a.client, 1500, 5)
	if info.ID != baseID {
		t.Fatalf("content-addressed IDs diverged: fleet %s, baseline %s", info.ID, baseID)
	}

	// The kill switch: the second checkpoint append (identify level 2,
	// level 1 already on disk) hangs until released and then fails.
	// Only the leader's own appends pass through this point — records a
	// follower applies from the stream use AppendReplicated — so this
	// deterministically strikes node-a's worker mid-job. Node-b's
	// resumed run re-checkpoints level 2 as append #3+, which passes.
	release := make(chan struct{})
	var releaseOnce sync.Once
	stalled := make(chan struct{})
	var stalledOnce sync.Once
	var checkpoints atomic.Int32
	faults.Set(faults.JournalAppend, func(arg any) error {
		rec, ok := arg.(durable.Record)
		if !ok || rec.Type != durable.RecCheckpoint {
			return nil
		}
		if checkpoints.Add(1) == 2 {
			stalledOnce.Do(func() { close(stalled) })
			<-release
			return errors.New("injected kill: node-a died mid-append")
		}
		return nil
	})
	t.Cleanup(func() {
		faults.Clear(faults.JournalAppend)
		releaseOnce.Do(func() { close(release) })
	})

	st, err := a.client.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the second checkpoint")
	}

	// Replicate everything the dying leader managed to journal — term,
	// submit, running, checkpoint level 1 — then cut it off: its sends
	// stop leaving the node, exactly as if the machine were gone.
	syncFleet(t, ctx, a, b, c)
	faults.Set(faults.ClusterReplicate, func(arg any) error {
		if s, ok := arg.(string); ok && strings.HasPrefix(s, "node-a→") {
			return errors.New("injected partition: node-a unreachable")
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ClusterReplicate) })

	// node-b is first in promotion rank: its budget is one lease
	// (2 ticks) of silence, so the third silent tick promotes it.
	for i := 0; i < 3; i++ {
		b.node.Tick(ctx)
	}
	if role, term, _ := b.node.Role(); role != RoleLeader || term != 2 {
		t.Fatalf("node-b = %s term %d after lease expiry, want leader term 2", role, term)
	}

	// Promotion re-queued the orphaned job from the replicated journal;
	// node-b's worker resumes it from checkpoint level 1 and runs it
	// out. The job must finish exactly once, on attempt 1 (the handoff
	// burned one life, like any interruption).
	got, err := b.client.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDone {
		t.Fatalf("failed-over job ended %s (%s), want done", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("failed-over job at attempt %d, want 1", got.Attempts)
	}

	// The headline assertion: the fleet's IBS is byte-identical to the
	// uninterrupted single-node run.
	var gotRaw json.RawMessage
	if err := b.client.Result(ctx, st.ID, &gotRaw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseRaw, gotRaw) {
		t.Fatalf("failed-over IBS differs from single-node run:\n fleet:    %s\n baseline: %s", gotRaw, baseRaw)
	}

	// New-leader heartbeats teach node-c the new term and depose
	// node-a on contact (the partition blocks a's sends, not b's). The
	// retrying client's next delivery then rejoins the deposed node
	// inline: node-a comes back live as node-b's follower, demoted
	// engine, fenced journal, no restart.
	b.node.Tick(ctx)
	if _, term, leader := c.node.Role(); term != 2 || leader != "node-b" {
		t.Fatalf("node-c sees term %d leader %s, want 2/node-b", term, leader)
	}
	if role, term, leader := a.node.Role(); role != RoleFollower || term != 2 || leader != "node-b" {
		t.Fatalf("node-a = %s term %d leader %s, want follower/2/node-b (deposed then rejoined)", role, term, leader)
	}
	if got := a.srv.Metrics().Snapshot().Counters["cluster.stepdowns"]; got != 1 {
		t.Fatalf("stepdowns on node-a = %d, want 1", got)
	}
	if got := a.srv.Metrics().Snapshot().Counters["cluster.rejoins"]; got != 1 {
		t.Fatalf("rejoins on node-a = %d, want 1", got)
	}
	if ready, reason := a.srv.Readiness(); ready || !strings.Contains(reason, "follower of node-b") {
		t.Fatalf("old leader readiness = %v %q, want not-ready follower", ready, reason)
	}

	// Exactly-once, client-visible: resubmitting the same request —
	// through the follower, which now forwards to node-b — dedups onto
	// the completed job instead of running it again.
	resub, err := c.client.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resub.ID != st.ID {
		t.Fatalf("post-failover resubmit spawned job %s, want dedup onto %s", resub.ID, st.ID)
	}

	// Exactly-once, on disk: the fleet's journal holds one done
	// transition for the job, and the done record credits node-b.
	doneRecs := 0
	if _, err := durable.ReplayJournal(ctx, b.store.Journal().Path(), func(rec durable.Record) error {
		if rec.Type == durable.RecState && rec.JobID == st.ID && rec.State == serve.StateDone {
			doneRecs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if doneRecs != 1 {
		t.Fatalf("journal holds %d done records for the job, want exactly 1", doneRecs)
	}

	// Heal the partition. The rejoined follower stays a follower — it
	// never contests term 2, and its tick is an ordinary lease count.
	faults.Clear(faults.ClusterReplicate)
	a.node.Tick(ctx)
	if role, term, leader := a.node.Role(); role != RoleFollower || term != 2 || leader != "node-b" {
		t.Fatalf("healed old leader = %s term %d leader %s, want follower/2/node-b", role, term, leader)
	}

	// Release the kill switch: node-a's stalled worker gets its append
	// failure and fails the job locally — on a fenced, freshly-demoted
	// node, where it can never be acked — letting shutdown drain
	// cleanly.
	releaseOnce.Do(func() { close(release) })
}
