package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
)

// The engine's contract with its journal: every job state the engine
// shows is what durable.Reduce makes of the journal, because a journal
// record folded by JobRecord.Apply is the only way a job's state
// changes. These tests drive a durable engine through every transition
// it has and compare the two tables on (ID, State, Error, Attempt).

// assertTableMatchesJournal compares the engine's job table with the
// reduction of recs. The one documented difference: a recovered job
// the journal shows as interrupted waits in the engine as queued, at
// the same attempt, until a worker takes it.
func assertTableMatchesJournal(t *testing.T, e *engine, recs []durable.Record) {
	t.Helper()
	live := map[string]JobStatus{}
	for _, st := range e.List() {
		live[st.ID] = st
	}
	tbl := durable.Reduce(recs)
	if len(tbl.Jobs) != len(live) {
		t.Errorf("journal reduces to %d jobs, engine shows %d", len(tbl.Jobs), len(live))
	}
	for _, want := range tbl.Jobs {
		got, ok := live[want.ID]
		if !ok {
			t.Errorf("job %s is in the journal but not in the engine", want.ID)
			continue
		}
		state := want.State
		if state == StateInterrupted {
			state = StateQueued
		}
		if got.State != state || got.Error != want.Error || got.Attempts != want.Attempt {
			t.Errorf("job %s: engine (%s, %q, attempt %d), journal (%s, %q, attempt %d)",
				want.ID, got.State, got.Error, got.Attempts, want.State, want.Error, want.Attempt)
		}
	}
}

// scriptServeJob installs a ServeJob hook that reports each job a
// worker picks up on entered and then waits for the test to send the
// job's action on act (nil lets it proceed). Install it after the
// server, so its cleanup — which lets every blocked and later job
// proceed — runs before the server's shutdown.
func scriptServeJob(t *testing.T) (entered chan string, act chan func() error) {
	t.Helper()
	entered = make(chan string, 64) // more than any test starts: a report never blocks a worker
	act = make(chan func() error)
	release := make(chan struct{})
	faults.Set(faults.ServeJob, func(arg any) error {
		entered <- arg.(string)
		select {
		case f := <-act:
			if f != nil {
				return f()
			}
		case <-release:
		}
		return nil
	})
	t.Cleanup(func() {
		close(release)
		faults.Clear(faults.ServeJob)
	})
	return entered, act
}

// waitState polls the engine until job id reaches state.
func waitState(t *testing.T, e *engine, id string, state State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := e.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		st := j.status()
		if st.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s), want %s", id, st.State, st.Error, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveJournalMatchesReplay walks one worker through every engine
// transition — idempotent resubmits, a cache hit, queued and running
// cancels, an injected failure, a timeout, steals completed done and
// failed, a stale steal result, a steal requeue, attempt-budget
// exhaustion and a shutdown drain — then restarts on the same data
// dir. Both generations' tables must equal the journal's reduction.
func TestLiveJournalMatchesReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 16, MaxAttempts: 3}
	srv, c, stop := durableServer(t, dir, cfg)
	entered, act := scriptServeJob(t)
	info := uploadCompas(t, c, 200, 1)
	submit := func(seed int64, mod func(*JobRequest)) JobStatus {
		t.Helper()
		req := JobRequest{Kind: "identify", DatasetID: info.ID, MinSize: 20, Seed: seed}
		if mod != nil {
			mod(&req)
		}
		st, err := c.SubmitJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	proceed := func(id string, f func() error) {
		t.Helper()
		if got := waitEntered(t, entered); got != id {
			t.Fatalf("worker picked up %s, want %s", got, id)
		}
		act <- f
	}

	// Idempotent resubmits, then a cache hit on the finished request.
	a := submit(1, func(r *JobRequest) { r.IdempotencyKey = "idem-a" })
	proceed(a.ID, nil)
	waitState(t, srv.engine, a.ID, StateDone)
	for i := 0; i < 2; i++ {
		if again := submit(1, func(r *JobRequest) { r.IdempotencyKey = "idem-a" }); again.ID != a.ID {
			t.Fatalf("idempotent resubmit created %s, want %s", again.ID, a.ID)
		}
	}
	if hit := submit(1, nil); hit.State != StateDone || hit.StartedAt != nil {
		t.Fatalf("identical resubmission = %+v, want a cache hit", hit)
	}

	// A queued cancel and a running cancel.
	running := submit(2, nil)
	if got := waitEntered(t, entered); got != running.ID {
		t.Fatalf("worker picked up %s, want %s", got, running.ID)
	}
	queued := submit(3, nil)
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	act <- nil
	waitState(t, srv.engine, running.ID, StateCancelled)

	// An injected failure and a timeout.
	failing := submit(4, nil)
	proceed(failing.ID, func() error { return errors.New("injected failure") })
	waitState(t, srv.engine, failing.ID, StateFailed)
	slow := submit(5, func(r *JobRequest) { r.TimeoutMS = 20 })
	proceed(slow.ID, func() error { time.Sleep(60 * time.Millisecond); return nil })
	waitState(t, srv.engine, slow.ID, StateFailed)

	// Work stealing, with the local worker held on one job.
	held := submit(6, nil)
	if got := waitEntered(t, entered); got != held.ID {
		t.Fatalf("worker picked up %s, want %s", got, held.ID)
	}
	steal := func(id string, attempt int) {
		t.Helper()
		g, err := srv.StealQueued(ctx, "node-b")
		if err != nil {
			t.Fatal(err)
		}
		if g.JobID != id || g.Attempt != attempt {
			t.Fatalf("steal granted %s@%d, want %s@%d", g.JobID, g.Attempt, id, attempt)
		}
	}
	result := json.RawMessage(`{"stolen":true}`)
	done := submit(7, nil)
	steal(done.ID, 0)
	if err := srv.CompleteStolen(ctx, done.ID, StateDone, "", result, "node-b", 0, nil); err != nil {
		t.Fatal(err)
	}
	failed := submit(8, nil)
	steal(failed.ID, 0)
	if err := srv.CompleteStolen(ctx, failed.ID, StateFailed, "stealer error", nil, "node-b", 0, nil); err != nil {
		t.Fatal(err)
	}
	stale := submit(9, nil)
	steal(stale.ID, 0)
	if err := srv.RequeueStolen(ctx, stale.ID); err != nil {
		t.Fatal(err)
	}
	// Every later record of this job restates its attempt, so only a
	// comparison made now shows whether the requeue reached the journal.
	assertTableMatchesJournal(t, srv.engine, journalRecords(t, dir))
	steal(stale.ID, 1)
	if err := srv.CompleteStolen(ctx, stale.ID, StateDone, "", result, "node-b", 0, nil); !errors.Is(err, ErrStaleAttempt) {
		t.Fatalf("stale steal result: err = %v, want ErrStaleAttempt", err)
	}
	if err := srv.CompleteStolen(ctx, stale.ID, StateDone, "", result, "node-b", 1, nil); err != nil {
		t.Fatal(err)
	}
	spent := submit(10, nil)
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		steal(spent.ID, attempt)
		if err := srv.RequeueStolen(ctx, spent.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, srv.engine, spent.ID, StateFailed)
	// Two steals the stealer never reports: running at the restart.
	orphans := []string{submit(11, nil).ID, submit(12, nil).ID}
	for _, id := range orphans {
		steal(id, 0)
	}

	// Shutdown drains the queue while the held job still runs.
	drained := []string{submit(13, nil).ID, submit(14, nil).ID}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		stop()
	}()
	for _, id := range drained {
		waitState(t, srv.engine, id, StateCancelled)
	}
	act <- nil
	<-stopped
	assertTableMatchesJournal(t, srv.engine, journalRecords(t, dir))
	if t.Failed() {
		return
	}

	// Restart: the orphaned steals come back interrupted at attempt 1.
	// The worker takes the first; the second waits queued.
	srv2, _, stop2 := durableServer(t, dir, cfg)
	defer stop2()
	if got := waitEntered(t, entered); got != orphans[0] {
		t.Fatalf("restarted worker picked up %s, want %s", got, orphans[0])
	}
	waitState(t, srv2.engine, orphans[0], StateRunning)
	assertTableMatchesJournal(t, srv2.engine, journalRecords(t, dir))
	if st, _ := srv2.engine.Job(orphans[1]); st.status().Attempts != 1 {
		t.Fatalf("recovered orphan %s at attempt %d, want 1", orphans[1], st.status().Attempts)
	}
	act <- nil
	act <- nil
	waitState(t, srv2.engine, orphans[1], StateDone)
}

// TestLiveJournalMatchesReplayConcurrent races four workers, repeated
// and idempotent submissions (cache hits, dedupes), injected failures,
// random cancels, a stealer that completes, fails, re-queues or
// abandons what it takes, and a shutdown drain; the table must still
// equal the journal's reduction. Run it under -race.
func TestLiveJournalMatchesReplayConcurrent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, c, stop := durableServer(t, dir, Config{Workers: 4, QueueDepth: 64, MaxAttempts: 3})
	info := uploadCompas(t, c, 200, 2)
	// Hold each run briefly so cancels, steals and the drain meet
	// queued and running jobs, not only finished ones.
	faults.Set(faults.ServeJob, func(arg any) error {
		time.Sleep(2 * time.Millisecond)
		if strings.HasSuffix(arg.(string), "7") {
			return errors.New("injected failure")
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.ServeJob) })

	var wg sync.WaitGroup
	submitting, stealerDone := make(chan struct{}), make(chan struct{})
	go func() { // the stealer
		defer close(stealerDone)
		rng := rand.New(rand.NewSource(99))
		result := json.RawMessage(`{"stolen":true}`)
		for {
			select {
			case <-submitting:
				return
			default:
			}
			g, err := srv.StealQueued(ctx, "node-b")
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			switch rng.Intn(4) {
			case 0:
				err = srv.CompleteStolen(ctx, g.JobID, StateDone, "", result, "node-b", g.Attempt, nil)
			case 1:
				err = srv.CompleteStolen(ctx, g.JobID, StateFailed, "stealer error", nil, "node-b", g.Attempt, nil)
			case 2:
				err = srv.RequeueStolen(ctx, g.JobID)
			} // case 3: abandoned, running at the drain
			if err != nil && !errors.Is(err, ErrStaleAttempt) {
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10; i++ {
				req := JobRequest{Kind: "identify", DatasetID: info.ID, MinSize: 20, Seed: int64(rng.Intn(20))}
				if rng.Intn(3) == 0 {
					req.IdempotencyKey = fmt.Sprintf("idem-%d", rng.Intn(4))
				}
				st, err := c.SubmitJob(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(3) == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					if _, err := c.Cancel(ctx, st.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(submitting)
	<-stealerDone
	stop() // drains whatever is still queued
	assertTableMatchesJournal(t, srv.engine, journalRecords(t, dir))
}

// TestRequeueStolenQueueFullJournalsFailure pins the requeue path's
// queue-full branch: the job fails, and the journal says so, so a
// restart cannot re-run a job whose client was told it failed.
func TestRequeueStolenQueueFullJournalsFailure(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store := openStore(t, dir)
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	e := newServer(Config{Workers: 1, QueueDepth: 2}).engine // never started
	e.journal = store.Journal()
	submit := func() JobStatus {
		t.Helper()
		st, err := e.Submit(ctx, JobRequest{Kind: "identify", DatasetID: "ds"}, func() {})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := submit()
	if _, _, err := e.StealQueued(ctx, "node-b"); err != nil {
		t.Fatal(err)
	}
	submit()
	submit()
	if err := e.RequeueStolen(ctx, a.ID); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("requeue into a full queue: err = %v, want ErrQueueFull", err)
	}
	j, err := e.Job(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.status(); st.State != StateFailed {
		t.Fatalf("engine shows %s, want failed", st.State)
	}
	recs := journalRecords(t, dir)
	for _, job := range durable.Reduce(recs).Jobs {
		if job.ID == a.ID && job.State != StateFailed {
			t.Fatalf("journal reduces %s to %s at attempt %d, want failed", a.ID, job.State, job.Attempt)
		}
	}
	assertTableMatchesJournal(t, e, recs)
}
