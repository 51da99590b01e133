package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// State is a job's lifecycle state as the journal spells it: the one
// definition of the job state machine (serve.State is an alias).
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// Terminal states never transition again. interrupted exists only in
// journals: recovery writes it for a job it found running at a crash.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state never transitions again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRecord is one job as reduced from the journal: its identity, the
// last state the journal proves, and its accumulated checkpoints. The
// JSON tags are the snapshot serialization (snapshot.go).
type JobRecord struct {
	ID      string          `json:"id"`
	IdemKey string          `json:"idem_key,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	State   State           `json:"state"`
	Error   string          `json:"error,omitempty"`
	// Attempt counts how many times the job has been (re)queued after
	// an interruption; 0 for a job on its first life.
	Attempt int `json:"attempt,omitempty"`
	// Checkpoints holds the latest identify checkpoint payload per
	// completed lattice level (later records for the same level win,
	// so a resumed attempt that re-runs a level supersedes the old
	// snapshot).
	Checkpoints map[int]json.RawMessage `json:"checkpoints,omitempty"`
}

// CheckpointLevels returns the checkpointed levels in ascending order.
func (j *JobRecord) CheckpointLevels() []int {
	levels := make([]int, 0, len(j.Checkpoints))
	for lv := range j.Checkpoints {
		levels = append(levels, lv)
	}
	sort.Ints(levels)
	return levels
}

// Table is the reduced job table: the consistent state the journal
// proves, however the process died.
type Table struct {
	// Jobs in submission order.
	Jobs []*JobRecord
	// MaxJobSeq is the largest numeric suffix among "job-NNNNNN" IDs,
	// so a recovered engine can continue the sequence without reuse.
	MaxJobSeq int
	// Dropped counts records the reduction ignored: transitions or
	// checkpoints for unknown jobs, duplicate submissions, and
	// transitions after a terminal state. A handful of dropped records
	// is the expected signature of a journal whose tail died between
	// related appends; the reduction stays consistent regardless.
	Dropped int
	// Replay carries how the journal read ended (torn tail etc.).
	Replay ReplayInfo
	// Term and Leader are the last leadership term the journal
	// witnessed (RecTerm records, last-wins) — zero/"" for a journal
	// that never ran in a cluster. TermStarts is the full term-start
	// history (snapshot's plus the tail's RecTerm records) with
	// absolute sequences, which the cluster layer exchanges for fork
	// detection.
	Term       uint64
	Leader     string
	TermStarts []TermStart
	// Base is the journal's compaction horizon after recovery, and
	// NextSeq the absolute sequence the next append receives (base +
	// intact tail records). Recovery seeds the journal's sequence
	// counter — and cuts a torn tail — at NextSeq, never at the raw
	// replayed record count, which is tail-only once compaction runs.
	Base    uint64
	NextSeq uint64
	// SnapshotSeq/SnapshotID describe the snapshot recovery loaded
	// (zero/"" when the journal was complete and no snapshot existed).
	SnapshotSeq uint64
	SnapshotID  string
}

// Reduce folds journal records into a consistent job table. It is
// deterministic, never panics, and enforces the state machine:
// unknown-job records are dropped, duplicate submissions are dropped,
// and once a job reaches a terminal state every later record for it
// is dropped (a duplicate "done" from a crash between append and ack
// cannot double-finish a job).
func Reduce(recs []Record) *Table {
	return ReduceFrom(nil, 0, recs)
}

// ReduceFrom folds a journal tail onto a snapshot's reduced state.
// tailStart is the absolute sequence of recs[0] — the journal's
// compaction base. Tail records below the snapshot's own horizon (the
// crash-window overlap between a committed snapshot and a
// not-yet-truncated journal) are already folded into snap and are
// skipped. A nil snap reduces the records alone, which is exactly
// Reduce.
func ReduceFrom(snap *Snapshot, tailStart uint64, recs []Record) *Table {
	t := &Table{}
	byID := make(map[string]*JobRecord)
	skip := uint64(0)
	if snap != nil {
		t.Term, t.Leader = snap.Term, snap.Leader
		t.MaxJobSeq = snap.MaxJobSeq
		t.Dropped = snap.Dropped
		t.TermStarts = append(t.TermStarts, snap.TermStarts...)
		for _, j := range snap.Jobs {
			if byID[j.ID] != nil {
				continue
			}
			byID[j.ID] = j
			t.Jobs = append(t.Jobs, j)
		}
		if snap.BaseSeq > tailStart {
			skip = snap.BaseSeq - tailStart
		}
	}
	for i, rec := range recs {
		if uint64(i) < skip {
			continue
		}
		t.reduceOne(byID, tailStart+uint64(i), rec)
	}
	return t
}

func (t *Table) reduceOne(byID map[string]*JobRecord, seq uint64, rec Record) {
	if rec.Type == RecTerm {
		// Terms are monotone: a replicated log can only ever append a
		// higher term, so last-wins and monotone-wins agree; keeping the
		// max guards against a hand-edited journal regressing the fence.
		if rec.Term > t.Term {
			t.Term = rec.Term
			t.Leader = rec.Leader
			t.TermStarts = append(t.TermStarts,
				TermStart{Term: rec.Term, Leader: rec.Leader, Seq: seq})
		}
		return
	}
	if rec.JobID == "" {
		t.Dropped++
		return
	}
	j := byID[rec.JobID]
	if j == nil && rec.Type == RecSubmit {
		j = &JobRecord{}
		byID[rec.JobID] = j
		t.Jobs = append(t.Jobs, j)
		if seq, ok := jobSeq(rec.JobID); ok && seq > t.MaxJobSeq {
			t.MaxJobSeq = seq
		}
	}
	if j == nil || !j.Apply(rec) {
		t.Dropped++
	}
}

// Apply folds one record into the job and reports whether it took
// effect. It is Reduce's per-job step and the live engine's transition
// function, so a live job and its replayed journal agree. A second
// submit, and a state or checkpoint record before the submit, after a
// terminal state or empty, are rejected; the attempt only grows.
func (j *JobRecord) Apply(rec Record) bool {
	if rec.Type == RecSubmit {
		if j.ID != "" {
			return false // duplicate submission: first one wins
		}
		*j = JobRecord{ID: rec.JobID, IdemKey: rec.IdemKey, Request: rec.Request, State: rec.State, Attempt: rec.Attempt}
		if j.State == "" {
			j.State = StateQueued
		}
		return true
	}
	if j.ID == "" || j.State.Terminal() {
		return false
	}
	switch rec.Type {
	case RecState:
		if rec.State == "" {
			return false
		}
		j.State, j.Error, j.Attempt = rec.State, rec.Error, max(j.Attempt, rec.Attempt)
	case RecCheckpoint:
		if len(rec.Checkpoint) == 0 {
			return false
		}
		if j.Checkpoints == nil {
			j.Checkpoints = make(map[int]json.RawMessage)
		}
		j.Checkpoints[rec.Level] = rec.Checkpoint
	default:
		return false
	}
	return true
}

// jobSeq extracts the numeric suffix of a "job-NNNNNN" ID.
func jobSeq(id string) (int, bool) {
	suffix, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(suffix)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Recover loads the store's snapshot (if any), replays the journal
// tail on top of it, and reduces both to a job table, under a
// "durable.recover" span carrying the outcome. A torn snapshot is
// fatal only when the journal has been compacted — the folded prefix
// exists nowhere else; while the journal is complete from record zero
// the snapshot is just an accelerator and damage is logged and
// ignored. Recover also finishes a compaction a crash interrupted
// between the snapshot commit and the prefix truncation, so positional
// framing always matches sequence numbering when it returns.
func (s *Store) Recover(ctx context.Context) (*Table, error) {
	ctx, sp := obs.StartSpan(ctx, "durable.recover")
	defer sp.End()
	base := s.journal.Base()
	snap, snapID, err := s.LoadSnapshot(ctx)
	if err != nil {
		if base > 0 {
			sp.SetStr("err", err.Error())
			return nil, fmt.Errorf("durable: recover: journal compacted to %d but snapshot unreadable: %w", base, err)
		}
		obs.LoggerFrom(ctx).Scope("durable").Warn("ignoring unreadable snapshot; journal is complete", "err", err)
		snap = nil
	}
	if snap == nil && base > 0 {
		return nil, fmt.Errorf("durable: recover: journal compacted to %d but no snapshot present", base)
	}
	if snap != nil && snap.BaseSeq < base {
		return nil, fmt.Errorf("durable: recover: snapshot horizon %d is behind journal base %d; records lost", snap.BaseSeq, base)
	}
	var recs []Record
	info, err := ReplayJournal(ctx, s.journal.Path(), func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		sp.SetStr("err", err.Error())
		return nil, err
	}
	t := ReduceFrom(snap, base, recs)
	t.Base = base
	t.NextSeq = base + uint64(info.Records)
	if snap != nil {
		t.SnapshotSeq, t.SnapshotID = snap.BaseSeq, snapID
		s.noteSnapshot(snap.BaseSeq, snapID)
		if snap.BaseSeq > base {
			// A crash interrupted Compact between the snapshot commit and
			// the prefix truncation: the journal still holds records the
			// snapshot already folded. Finish the truncation now so every
			// in-file frame is again at (sequence - base).
			if t.NextSeq < snap.BaseSeq {
				t.NextSeq = snap.BaseSeq // tail ended inside the folded range
			}
			s.journal.InitSequence(t.NextSeq)
			if base+uint64(info.Records) <= snap.BaseSeq {
				err = s.journal.ResetToBase(ctx, snap.BaseSeq)
			} else {
				err = s.journal.CompactTo(ctx, snap.BaseSeq)
			}
			if err != nil {
				sp.SetStr("err", err.Error())
				return nil, fmt.Errorf("durable: recover: finish interrupted compaction: %w", err)
			}
			t.Base = snap.BaseSeq
			obs.LoggerFrom(ctx).Scope("durable").Info("finished interrupted compaction",
				"base", snap.BaseSeq)
		}
	}
	t.Replay = info
	sp.SetInt("records", int64(info.Records))
	sp.SetInt("jobs", int64(len(t.Jobs)))
	sp.SetInt("dropped", int64(t.Dropped))
	sp.SetInt("base", int64(base))
	if info.Torn {
		sp.SetStr("torn_tail", info.Reason)
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("durable.jobs_recovered").Add(int64(len(t.Jobs)))
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelInfo) {
		lg.Scope("durable").Info("journal recovered",
			"records", info.Records, "base", base, "jobs", len(t.Jobs),
			"dropped", t.Dropped, "torn", info.Torn)
	}
	return t, nil
}
