package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/obs"
)

// This file is the restart half of the durability contract: it turns
// the journal and spill area left by a dead server into a live one.
// The live half is engine.commit (jobs.go): a job's state changes only
// by appending a journal record and folding it through
// durable.JobRecord.Apply, the step durable.Reduce folds a replayed
// journal with — so the table recovery rebuilds here is, job for job,
// the table the dead engine showed.
//
// Datasets come back first (so recovered jobs can re-acquire their
// inputs), then the journal is reduced to a job table and each job is
// restored from its reduced record per its proven state:
//
//   - terminal (done/failed/cancelled): queryable history. Result
//     payloads are not retained across restarts, so fetching a
//     recovered done job's result returns ErrResultGone (410).
//   - queued: re-enters the queue unchanged — it never ran.
//   - running / interrupted: the crash orphaned it. It is journaled
//     as interrupted with a bumped attempt counter and re-queued to
//     resume from its last completed identify checkpoint, until its
//     attempt budget (Config.MaxAttempts) is spent, at which point it
//     is journaled failed. interrupted exists only in the journal: the
//     engine shows the re-queued job as queued, at the bumped attempt,
//     until a worker takes it.
//
// Every state written during recovery goes through engine.commit
// before the job is restored, so a crash *during* recovery replays to
// the same table.

// recover restores registry and engine state from s.store. Called by
// NewDurable before the worker pool starts, so no job runs against a
// partially restored registry. The node reports not-ready for the
// duration of the replay.
func (s *Server) recover(ctx context.Context) error {
	s.SetNotReady("replaying journal")
	if err := s.recoverInto(ctx, true); err != nil {
		return err
	}
	s.SetReady()
	return nil
}

// recoverStandby is the follower half of recovery: datasets and the
// journal's bookkeeping (sequence, torn tail) are restored so the node
// can receive replicated records, but jobs are not — and nothing is
// appended, because a follower's journal must stay a positional
// replica of its leader's. The node stays not-ready.
func (s *Server) recoverStandby(ctx context.Context) error {
	return s.recoverInto(ctx, false)
}

// Promote turns a standby follower into a serving leader: the
// accumulated replicated journal is replayed into the engine — jobs
// the dead leader finished become history, its orphaned running job is
// re-queued to resume from its last replicated checkpoint — and the
// node goes ready. Jobs the engine already knows (a defensive case;
// a standby's engine is normally empty) are skipped, so Promote is
// safe to call on a node that has partially recovered before.
//
// The caller (internal/cluster) appends the new term's RecTerm before
// calling Promote, so every record the promotion itself appends is
// already fenced under the new term.
func (s *Server) Promote(ctx context.Context) error {
	s.SetNotReady("replaying journal")
	if err := s.recoverInto(ctx, true); err != nil {
		s.SetNotReady("promotion failed: " + err.Error())
		return err
	}
	s.SetReady()
	return nil
}

// Demote is Promote's inverse, run when the cluster deposes this node
// while it is still alive: the engine forgets every job, cancels
// running work, and drains its queue — without journaling anything,
// because the cluster fences the journal before calling Demote and the
// new leader's replicated log supersedes whatever this node was doing.
// The engine itself stays up (workers, cache, registry), so the node
// can re-enter as a follower and even be promoted again later, all
// without a process restart. The caller owns the readiness reason.
func (s *Server) Demote(ctx context.Context) {
	dropped := s.engine.demote()
	obs.LoggerFrom(ctx).Scope("serve").Info("engine demoted for rejoin", "jobs_dropped", dropped)
}

// recoverInto is the shared recovery walk. restoreJobs selects the
// full mode (jobs restored, recovery records appended) versus the
// standby mode (bookkeeping only, nothing appended).
func (s *Server) recoverInto(ctx context.Context, restoreJobs bool) error {
	ctx = obs.WithLogger(obs.WithMetrics(ctx, s.metrics), s.logger)
	ctx, sp := obs.StartSpan(ctx, "serve.recover")
	defer sp.End()

	s.engine.journal = s.store.Journal()

	if err := s.restoreDatasets(ctx); err != nil {
		return err
	}

	tbl, err := s.store.Recover(ctx)
	if err != nil {
		return fmt.Errorf("serve: recover journal: %w", err)
	}
	s.engine.setSeq(tbl.MaxJobSeq)
	s.recTerm, s.recLeader = tbl.Term, tbl.Leader
	s.recTermStarts = append([]durable.TermStart(nil), tbl.TermStarts...)
	sp.SetInt("jobs", int64(len(tbl.Jobs)))
	if tbl.Replay.Torn {
		s.logger.Warn("journal tail damaged; recovering the proven prefix",
			"records", tbl.NextSeq, "reason", tbl.Replay.Reason)
		// Cut the damaged bytes before any new append lands behind them:
		// an append after a torn tail would be unreadable on the next
		// replay, silently shortening the journal's proven history.
		// NextSeq is absolute (snapshot-folded prefix + intact tail).
		if err := s.store.Journal().TruncateTo(ctx, tbl.NextSeq); err != nil {
			return fmt.Errorf("serve: cut torn journal tail: %w", err)
		}
	}
	s.store.Journal().InitSequence(tbl.NextSeq)

	if !restoreJobs {
		s.logger.Info("standby recovery complete",
			"datasets", s.registry.Len(), "records", tbl.Replay.Records)
		return nil
	}

	// Restore in job-ID order, the order a live engine lists and queues
	// jobs in. Journal order can differ: racing submissions journal
	// after the engine lock that numbered them is released.
	jobs := append([]*durable.JobRecord(nil), tbl.Jobs...)
	sort.SliceStable(jobs, func(a, b int) bool { return jobIDLess(jobs[a].ID, jobs[b].ID) })
	requeued := 0
	for _, rec := range jobs {
		if _, err := s.engine.Job(rec.ID); err == nil {
			continue // already restored by an earlier recovery pass
		}
		rq, err := s.restoreJob(ctx, rec)
		if err != nil {
			return err
		}
		if rq {
			requeued++
		}
	}
	sp.SetInt("requeued", int64(requeued))
	s.metrics.Counter("serve.jobs_requeued").Add(int64(requeued))
	s.logger.Info("recovery complete",
		"datasets", s.registry.Len(), "jobs", len(tbl.Jobs), "requeued", requeued)
	return nil
}

// jobIDLess orders job IDs by the sequence number that minted them:
// "job-%06d" IDs are zero-padded, so a shorter ID has the smaller
// number and equal lengths compare as strings.
func jobIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// restoreDatasets re-admits every committed spilled dataset under its
// original ID. A dataset that no longer parses is skipped with a
// warning — jobs referencing it fail at restore with a clear error —
// rather than aborting the whole recovery.
func (s *Server) restoreDatasets(ctx context.Context) error {
	spilled, err := s.store.LoadDatasets(ctx)
	if err != nil {
		return fmt.Errorf("serve: recover datasets: %w", err)
	}
	for _, sd := range spilled {
		if err := s.restoreOneDataset(ctx, sd); err != nil {
			s.logger.Warn("skipping unrecoverable dataset", "id", sd.Meta.ID, "err", err)
		}
	}
	return nil
}

func (s *Server) restoreOneDataset(ctx context.Context, sd durable.SpilledDataset) error {
	f, err := os.Open(sd.CSVPath)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow errdiscard read-only file; close errors cannot lose data
	// Spilled CSVs are the canonical WriteCSV form the server itself
	// produced, so the upload caps do not apply on the way back in.
	d, err := dataset.ReadCSVLimit(f, sd.Meta.Target, sd.Meta.Protected, 0, 0)
	if err != nil {
		return err
	}
	_, err = s.registry.Restore(ctx, sd.Meta.ID, sd.Meta.Name, d, sd.Meta.Bytes)
	return err
}

// restoreJob rebuilds one journaled job. It returns whether the job
// re-entered the queue. Only journal-append failures are fatal (the
// recovery cannot prove its own writes); everything else degrades to
// a failed job carrying the reason.
func (s *Server) restoreJob(ctx context.Context, rec *durable.JobRecord) (bool, error) {
	j := &job{
		id:       rec.ID,
		rec:      *rec,
		metrics:  obs.NewRegistry(),
		tracer:   obs.NewTracer(),
		done:     make(chan struct{}),
		enqueued: time.Now(), //lint:allow determinism job lifecycle timestamp is reporting metadata, not a pipeline input
	}
	// j.req and j.resume hold the request and checkpoints decoded.
	j.rec.Request, j.rec.Checkpoints = nil, nil
	var reqErr error
	if len(rec.Request) > 0 {
		reqErr = json.Unmarshal(rec.Request, &j.req)
	}
	j.tenant = s.engine.queue.canonical(tenantOf(j.req))

	if rec.State.Terminal() {
		// History only: the terminal timestamp is lost with the process,
		// so finished mirrors the restore time. No new journal record —
		// the journal already proves this outcome.
		j.finished = j.enqueued
		close(j.done)
		return false, s.restoreInsert(ctx, j, rec)
	}

	if reqErr != nil {
		return false, s.restoreFailed(ctx, j, rec, "journaled request undecodable: "+reqErr.Error())
	}
	if j.req.Kind == "" || j.req.DatasetID == "" {
		return false, s.restoreFailed(ctx, j, rec, "journaled request incomplete")
	}

	switch rec.State {
	case StateQueued:
		// Never ran; same attempt, no new record.
	case StateRunning, StateInterrupted:
		attempt := rec.Attempt + 1
		if attempt >= s.cfg.MaxAttempts {
			return false, s.restoreFailed(ctx, j, rec, fmt.Sprintf(
				"interrupted by restart; attempt budget exhausted (%d/%d)", attempt, s.cfg.MaxAttempts))
		}
		err := s.engine.commit(ctx, j, func(durable.JobRecord) (durable.Record, error) {
			return j.record(StateInterrupted, "interrupted by restart", attempt), nil
		})
		if err != nil {
			return false, fmt.Errorf("serve: journal interruption: %w", err)
		}
		j.resume = decodeCheckpoints(rec)
	default:
		return false, s.restoreFailed(ctx, j, rec, "journaled state unknown: "+string(rec.State))
	}

	// Re-take the dataset reference the original submission held. In a
	// cluster the dataset may live on another node's shard (the dead
	// leader pushed it there); acquireDataset fetches it on miss.
	_, release, err := s.acquireDataset(ctx, j.req.DatasetID)
	if err != nil {
		return false, s.restoreFailed(ctx, j, rec, "dataset not recovered: "+err.Error())
	}
	j.release = release
	// interrupted exists only in the journal: the engine shows the job
	// as queued, at the attempt the record bumped, until a worker takes
	// it.
	j.rec.State = StateQueued
	// Once restore queues j, a running worker may commit to it: read
	// what the log line needs first.
	attempt, checkpoints := j.rec.Attempt, len(j.resume)
	if err := s.engine.restore(j); err != nil {
		release()
		j.release = nil
		return false, s.restoreFailed(ctx, j, rec, "re-queue failed: "+err.Error())
	}
	s.logger.Info("job re-queued after restart",
		"job", j.id, "attempt", attempt, "checkpoints", checkpoints)
	return true, nil
}

// restoreFailed journals the job as failed with reason and inserts it
// as failed history. The journal append must succeed: a recovery that
// cannot write its own conclusions would replay differently next time.
func (s *Server) restoreFailed(ctx context.Context, j *job, rec *durable.JobRecord, reason string) error {
	if err := s.engine.commit(ctx, j, j.to(StateFailed, reason, nil)); err != nil {
		return fmt.Errorf("serve: journal recovery failure: %w", err)
	}
	return s.restoreInsert(ctx, j, rec)
}

// restoreInsert registers a terminal recovered job with the engine.
func (s *Server) restoreInsert(_ context.Context, j *job, rec *durable.JobRecord) error {
	if j.req.IdempotencyKey == "" {
		j.req.IdempotencyKey = rec.IdemKey
	}
	if err := s.engine.restore(j); err != nil {
		return fmt.Errorf("serve: restore job %s: %w", j.id, err)
	}
	return nil
}

// decodeCheckpoints turns a job's journaled checkpoint payloads into
// resume snapshots, skipping any that no longer decode (a corrupt
// checkpoint costs re-running its level, nothing more).
func decodeCheckpoints(rec *durable.JobRecord) []core.LevelSnapshot {
	levels := rec.CheckpointLevels()
	out := make([]core.LevelSnapshot, 0, len(levels))
	for _, lv := range levels {
		var snap core.LevelSnapshot
		if err := json.Unmarshal(rec.Checkpoints[lv], &snap); err != nil {
			continue
		}
		if snap.Level < 1 {
			continue
		}
		out = append(out, snap)
	}
	return out
}
