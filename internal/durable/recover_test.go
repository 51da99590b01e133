package durable

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestReduceHappyPath(t *testing.T) {
	req := json.RawMessage(`{"kind":"identify"}`)
	tbl := Reduce([]Record{
		{Type: RecSubmit, JobID: "job-000001", IdemKey: "k1", Request: req},
		{Type: RecState, JobID: "job-000001", State: StateRunning},
		{Type: RecCheckpoint, JobID: "job-000001", Level: 4, Checkpoint: json.RawMessage(`{"l":4}`)},
		{Type: RecCheckpoint, JobID: "job-000001", Level: 3, Checkpoint: json.RawMessage(`{"l":3}`)},
		{Type: RecState, JobID: "job-000001", State: StateDone},
		{Type: RecSubmit, JobID: "job-000002", Request: req},
	})
	if len(tbl.Jobs) != 2 || tbl.Dropped != 0 {
		t.Fatalf("jobs=%d dropped=%d, want 2/0", len(tbl.Jobs), tbl.Dropped)
	}
	j1 := tbl.Jobs[0]
	if j1.ID != "job-000001" || j1.State != StateDone || j1.IdemKey != "k1" {
		t.Fatalf("job1 = %+v", j1)
	}
	if lv := j1.CheckpointLevels(); len(lv) != 2 || lv[0] != 3 || lv[1] != 4 {
		t.Fatalf("checkpoint levels = %v, want [3 4]", lv)
	}
	if tbl.Jobs[1].State != StateQueued {
		t.Fatalf("job2 state = %s, want queued", tbl.Jobs[1].State)
	}
	if tbl.MaxJobSeq != 2 {
		t.Fatalf("MaxJobSeq = %d, want 2", tbl.MaxJobSeq)
	}
}

func TestReduceDuplicateSubmit(t *testing.T) {
	tbl := Reduce([]Record{
		{Type: RecSubmit, JobID: "job-000001", IdemKey: "first"},
		{Type: RecSubmit, JobID: "job-000001", IdemKey: "second"},
	})
	if len(tbl.Jobs) != 1 || tbl.Jobs[0].IdemKey != "first" || tbl.Dropped != 1 {
		t.Fatalf("table = %+v, want first submit to win", tbl)
	}
}

func TestReduceDuplicateTerminalTransition(t *testing.T) {
	// A crash between the "done" append and its acknowledgment can make
	// a recovered engine re-finish the job; the duplicate terminal
	// transition must not flip the outcome.
	tbl := Reduce([]Record{
		{Type: RecSubmit, JobID: "job-000001"},
		{Type: RecState, JobID: "job-000001", State: StateDone},
		{Type: RecState, JobID: "job-000001", State: StateFailed, Error: "late duplicate"},
	})
	j := tbl.Jobs[0]
	if j.State != StateDone || j.Error != "" || tbl.Dropped != 1 {
		t.Fatalf("job = %+v dropped=%d, want done to stick", j, tbl.Dropped)
	}
}

func TestReduceOrphanRecordsDropped(t *testing.T) {
	tbl := Reduce([]Record{
		{Type: RecState, JobID: "job-000009", State: StateRunning},
		{Type: RecCheckpoint, JobID: "job-000009", Level: 1, Checkpoint: json.RawMessage(`{}`)},
		{Type: RecState, JobID: "", State: StateDone},
		{Type: RecordType("mystery"), JobID: "job-000009"},
	})
	if len(tbl.Jobs) != 0 || tbl.Dropped != 4 {
		t.Fatalf("jobs=%d dropped=%d, want 0/4", len(tbl.Jobs), tbl.Dropped)
	}
}

func TestReduceAttemptMonotonic(t *testing.T) {
	tbl := Reduce([]Record{
		{Type: RecSubmit, JobID: "job-000001"},
		{Type: RecState, JobID: "job-000001", State: StateRunning},
		{Type: RecState, JobID: "job-000001", State: StateInterrupted, Attempt: 1},
		{Type: RecState, JobID: "job-000001", State: StateQueued, Attempt: 1},
		{Type: RecState, JobID: "job-000001", State: StateRunning},
	})
	j := tbl.Jobs[0]
	if j.State != StateRunning || j.Attempt != 1 {
		t.Fatalf("job = %+v, want running at attempt 1", j)
	}
}

func TestReduceMaxJobSeqIgnoresForeignIDs(t *testing.T) {
	tbl := Reduce([]Record{
		{Type: RecSubmit, JobID: "job-000041"},
		{Type: RecSubmit, JobID: "custom-99"},
		{Type: RecSubmit, JobID: "job-notanumber"},
		{Type: RecSubmit, JobID: "job-000007"},
	})
	if tbl.MaxJobSeq != 41 {
		t.Fatalf("MaxJobSeq = %d, want 41", tbl.MaxJobSeq)
	}
	if len(tbl.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(tbl.Jobs))
	}
}

func TestStoreRecoverEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecSubmit, JobID: "job-000001", Request: json.RawMessage(`{"kind":"identify"}`)},
		{Type: RecState, JobID: "job-000001", State: StateRunning},
		{Type: RecCheckpoint, JobID: "job-000001", Level: 2, Checkpoint: json.RawMessage(`{"l":2}`)},
	}
	for _, rec := range recs {
		if err := s.Journal().Append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A second Open against the same directory sees the same journal.
	s2, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl, err := s2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Jobs) != 1 || tbl.Jobs[0].State != StateRunning {
		t.Fatalf("recovered table = %+v", tbl)
	}
	if len(tbl.Jobs[0].Checkpoints) != 1 {
		t.Fatalf("checkpoints = %v, want level 2 only", tbl.Jobs[0].Checkpoints)
	}
}

func TestStoreSpillLoadRemove(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	meta := DatasetMeta{ID: "ds-abc123", Name: "adult", Target: "income", Protected: []string{"race", "sex"}, Bytes: 11}
	if err := s.SpillDataset(ctx, meta, func(w io.Writer) error {
		_, werr := w.Write([]byte("a,b\n1,2\n"))
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	// Re-spilling the same ID is an idempotent no-op.
	if err := s.SpillDataset(ctx, meta, func(io.Writer) error {
		t.Error("re-spill invoked the writer")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	got, err := s.LoadDatasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Meta.ID != meta.ID || got[0].Meta.Target != "income" {
		t.Fatalf("loaded = %+v", got)
	}

	if err := s.RemoveDataset(ctx, meta.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDataset(ctx, meta.ID); err != nil {
		t.Fatalf("double remove: %v", err)
	}
	got, err = s.LoadDatasets(ctx)
	if err != nil || len(got) != 0 {
		t.Fatalf("after remove: %d datasets, err=%v", len(got), err)
	}
}

func TestStoreRejectsUnsafeIDs(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, id := range []string{"", ".", "..", "../escape", "a/b", "a\\b", "a b"} {
		err := s.SpillDataset(ctx, DatasetMeta{ID: id}, func(io.Writer) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "safe file name") {
			t.Errorf("SpillDataset(%q) = %v, want ErrBadDatasetID", id, err)
		}
		if err := s.RemoveDataset(ctx, id); err == nil {
			t.Errorf("RemoveDataset(%q) accepted an unsafe id", id)
		}
	}
}
