package durable

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
)

// jobStream appends a small replicated-log-shaped record stream: a
// term open, then n jobs each with submit → running → checkpoint →
// done. It returns the journal's absolute sequence afterwards.
func jobStream(t *testing.T, ctx context.Context, s *Store, n int) uint64 {
	t.Helper()
	if err := s.Journal().Append(ctx, Record{Type: RecTerm, Term: 1, Leader: "node-a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := jobID(i + 1)
		for _, rec := range []Record{
			{Type: RecSubmit, JobID: id, Request: json.RawMessage(`{"kind":"identify","dataset_id":"ds-compas"}`)},
			{Type: RecState, JobID: id, State: StateRunning},
			{Type: RecCheckpoint, JobID: id, Level: 1, Checkpoint: json.RawMessage(`{"l":1}`)},
			{Type: RecState, JobID: id, State: "done"},
		} {
			if err := s.Journal().Append(ctx, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s.Journal().Sequence()
}

func jobID(n int) string {
	return "job-" + strings.Repeat("0", 6-len(itoa(n))) + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// tableJSON canonicalizes a recovered table for equivalence checks:
// the fields that define durable state, without replay bookkeeping.
func tableJSON(t *testing.T, tbl *Table) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Jobs       []*JobRecord
		Term       uint64
		Leader     string
		TermStarts []TermStart
		MaxJobSeq  int
		NextSeq    uint64
	}{tbl.Jobs, tbl.Term, tbl.Leader, tbl.TermStarts, tbl.MaxJobSeq, tbl.NextSeq})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seq := jobStream(t, ctx, s, 2)

	// Snapshot-only compaction: the journal keeps its prefix.
	if err := s.Compact(ctx, seq, false); err != nil {
		t.Fatal(err)
	}
	if base := s.Journal().Base(); base != 0 {
		t.Fatalf("snapshot-only compaction moved the base to %d", base)
	}
	snap, id, err := s.LoadSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.BaseSeq != seq || snap.Term != 1 || snap.Leader != "node-a" {
		t.Fatalf("snapshot = base %d term %d leader %s, want %d/1/node-a", snap.BaseSeq, snap.Term, snap.Leader, seq)
	}
	if len(snap.Jobs) != 2 || snap.MaxJobSeq != 2 {
		t.Fatalf("snapshot jobs = %d maxSeq %d, want 2/2", len(snap.Jobs), snap.MaxJobSeq)
	}
	if len(snap.TermStarts) != 1 || snap.TermStarts[0].Seq != 0 {
		t.Fatalf("term starts = %+v, want term 1 at seq 0", snap.TermStarts)
	}
	if want := []string{"ds-compas"}; len(snap.Datasets) != 1 || snap.Datasets[0] != want[0] {
		t.Fatalf("datasets = %v, want %v", snap.Datasets, want)
	}
	if !strings.HasPrefix(id, "snap-") {
		t.Fatalf("content address = %q, want snap-<sha256>", id)
	}

	// The content address is a function of the bytes: re-reading gives
	// the same ID, and the raw file decodes to it end to end.
	raw, rawID, _, err := s.SnapshotRaw(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rawID != id {
		t.Fatalf("raw ID %s != written ID %s", rawID, id)
	}
	snap2, id2, err := DecodeSnapshot(raw)
	if err != nil || id2 != id || snap2.BaseSeq != seq {
		t.Fatalf("decode: %v, id %s, base %d", err, id2, snap2.BaseSeq)
	}
}

// TestCompactRecoverEquivalence is the compaction contract: recovery
// from snapshot + tail must produce exactly the state a full-log
// replay would.
func TestCompactRecoverEquivalence(t *testing.T) {
	ctx := context.Background()
	build := func(dir string, compact bool) string {
		s, err := Open(ctx, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		jobStream(t, ctx, s, 2)
		if compact {
			// Compact mid-log: two jobs folded, then two more appended as
			// the live tail.
			if err := s.Compact(ctx, s.Journal().Sequence(), true); err != nil {
				t.Fatal(err)
			}
		}
		for i := 3; i <= 4; i++ {
			id := jobID(i)
			for _, rec := range []Record{
				{Type: RecSubmit, JobID: id, Request: json.RawMessage(`{"kind":"identify","dataset_id":"ds-compas"}`)},
				{Type: RecState, JobID: id, State: "done"},
			} {
				if err := s.Journal().Append(ctx, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(ctx, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		tbl, err := s2.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return tableJSON(t, tbl)
	}
	full := build(t.TempDir(), false)
	compacted := build(t.TempDir(), true)
	if full != compacted {
		t.Fatalf("compacted recovery diverges from full replay:\n full:      %s\n compacted: %s", full, compacted)
	}
}

// TestRecoverFinishesInterruptedCompaction stages the crash window the
// snapshot-first ordering leaves open: the snapshot committed but the
// prefix truncation never ran. Recovery must finish the truncation and
// produce the same state.
func TestRecoverFinishesInterruptedCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	seq := jobStream(t, ctx, s, 2)
	// Compact without truncating = the interrupted state on disk:
	// snapshot horizon seq, journal still complete from zero.
	if err := s.Compact(ctx, seq, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl, err := s2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Journal().Base() != seq {
		t.Fatalf("recovery left the journal base at %d, want the snapshot horizon %d", s2.Journal().Base(), seq)
	}
	if len(tbl.Jobs) != 2 || tbl.NextSeq != seq {
		t.Fatalf("repaired table: %d jobs next %d, want 2/%d", len(tbl.Jobs), tbl.NextSeq, seq)
	}
	// Appends continue the absolute numbering seamlessly.
	s2.Journal().InitSequence(tbl.NextSeq)
	if err := s2.Journal().Append(ctx, Record{Type: RecState, JobID: jobID(1), State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Journal().Sequence(); got != seq+1 {
		t.Fatalf("post-repair sequence = %d, want %d", got, seq+1)
	}
}

// TestRecoverInstallCrashBeforeReset stages the other crash window: a
// received snapshot file committed (horizon past everything the local
// journal holds) but the journal reset never ran. Recovery must adopt
// the snapshot wholesale and reset the file.
func TestRecoverInstallCrashBeforeReset(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	jobStream(t, ctx, s, 1) // 5 records, all below the incoming horizon

	// A leader's snapshot at a horizon far past the local tail.
	donor, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	donorSeq := jobStream(t, ctx, donor, 3)
	if err := donor.Compact(ctx, donorSeq, true); err != nil {
		t.Fatal(err)
	}
	raw, _, _, err := donor.SnapshotRaw(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}
	// Commit the snapshot file without the journal reset — the crash.
	if err := os.WriteFile(s.snapshotPath(), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(ctx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl, err := s2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Journal().Base() != donorSeq || tbl.NextSeq != donorSeq {
		t.Fatalf("base %d next %d after repair, want %d/%d", s2.Journal().Base(), tbl.NextSeq, donorSeq, donorSeq)
	}
	if len(tbl.Jobs) != 3 {
		t.Fatalf("jobs = %d, want the snapshot's 3", len(tbl.Jobs))
	}
}

func TestInstallSnapshotVerifiesContentAddress(t *testing.T) {
	ctx := context.Background()
	donor, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	seq := jobStream(t, ctx, donor, 1)
	if err := donor.Compact(ctx, seq, true); err != nil {
		t.Fatal(err)
	}
	raw, id, _, err := donor.SnapshotRaw(ctx)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.InstallSnapshot(ctx, raw, "snap-forged"); err == nil {
		t.Fatal("install accepted a wrong content address")
	}
	snap, err := s.InstallSnapshot(ctx, raw, id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.BaseSeq != seq || s.Journal().Base() != seq || s.Journal().Sequence() != seq {
		t.Fatalf("installed base/seq = %d/%d, want %d", s.Journal().Base(), s.Journal().Sequence(), seq)
	}
}

func TestTruncateToEdgeCases(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := s.Journal()
	seq := jobStream(t, ctx, s, 1) // 5 records

	// Truncating past the end fails loudly.
	if err := j.TruncateTo(ctx, seq+1); err == nil {
		t.Fatal("truncate past the end succeeded")
	}
	// Truncating to the current length is a no-op.
	if err := j.TruncateTo(ctx, seq); err != nil {
		t.Fatalf("no-op truncate: %v", err)
	}
	if j.Sequence() != seq {
		t.Fatalf("no-op truncate moved sequence to %d", j.Sequence())
	}
	// Truncate to zero empties the journal completely.
	if err := j.TruncateTo(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if j.Sequence() != 0 {
		t.Fatalf("sequence = %d after truncate to zero", j.Sequence())
	}
	info, err := ReplayJournal(ctx, j.Path(), func(Record) error { return nil })
	if err != nil || info.Records != 0 {
		t.Fatalf("replay after truncate to zero: %d records, %v", info.Records, err)
	}

	// Rebuild, compact, and probe the snapshot boundary.
	seq = jobStream(t, ctx, s, 1)
	if err := s.Compact(ctx, seq, true); err != nil {
		t.Fatal(err)
	}
	// Exactly at the boundary: legal no-op (the tail is empty).
	if err := j.TruncateTo(ctx, seq); err != nil {
		t.Fatalf("truncate to the exact snapshot boundary: %v", err)
	}
	// Below the boundary: the records are gone; only a snapshot install
	// can rewind further.
	if err := j.TruncateTo(ctx, seq-1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("truncate below the horizon = %v, want ErrCompacted", err)
	}
}

// TestTruncateRacingAppend races truncations against a stream of
// appends: the journal's mutex serializes them, so whatever interleaving
// wins, the file must replay cleanly with exactly Sequence() records.
func TestTruncateRacingAppend(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := s.Journal()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			if err := j.Append(ctx, Record{Type: RecState, JobID: jobID(1), State: StateRunning}); err != nil {
				t.Errorf("racing append: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			// Truncate to wherever the log currently ends — the no-op
			// flavor a reconciliation against an equal-length leader does.
			if err := j.TruncateTo(ctx, j.Sequence()); err != nil {
				t.Errorf("racing truncate: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	info, err := ReplayJournal(ctx, j.Path(), func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if uint64(info.Records) != j.Sequence() {
		t.Fatalf("file holds %d records, sequence says %d", info.Records, j.Sequence())
	}
	if info.Torn {
		t.Fatalf("racing truncate tore the journal: %s", info.Reason)
	}
}

func TestJournalFenceBlocksOriginatedAppendsOnly(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := s.Journal()

	j.Fence()
	if err := j.Append(ctx, Record{Type: RecState, JobID: jobID(1), State: StateRunning}); !errors.Is(err, ErrJournalFenced) {
		t.Fatalf("fenced Append = %v, want ErrJournalFenced", err)
	}
	if err := j.AppendReplicated(ctx, Record{Type: RecTerm, Term: 2, Leader: "node-b"}); err != nil {
		t.Fatalf("fenced AppendReplicated = %v, want success (the catch-up path)", err)
	}
	if j.Sequence() != 1 {
		t.Fatalf("sequence = %d, want 1 (only the replicated append landed)", j.Sequence())
	}
	j.Unfence()
	if err := j.Append(ctx, Record{Type: RecState, JobID: jobID(1), State: StateRunning}); err != nil {
		t.Fatalf("unfenced Append = %v", err)
	}
}

func TestStoreStatsTracksCompaction(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seq := jobStream(t, ctx, s, 2)

	st := s.Stats(ctx)
	if st.SnapshotSeq != 0 || st.JournalRecords != seq || st.AgeRecords != seq {
		t.Fatalf("pre-compaction stats = %+v", st)
	}
	if st.JournalBytes == 0 {
		t.Fatal("journal bytes = 0 with records on disk")
	}

	if err := s.Compact(ctx, seq, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal().Append(ctx, Record{Type: RecState, JobID: jobID(1), State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats(ctx)
	if st.SnapshotSeq != seq || st.JournalBase != seq || st.AgeRecords != 1 {
		t.Fatalf("post-compaction stats = %+v, want snapshot/base %d age 1", st, seq)
	}
	if st.SnapshotID == "" {
		t.Fatal("stats carry no snapshot content address")
	}
}

func TestMaybeCompactHonorsPolicy(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// No policy: never compacts.
	jobStream(t, ctx, s, 1)
	if did, err := s.MaybeCompact(ctx); err != nil || did {
		t.Fatalf("policy-free MaybeCompact = %v/%v, want false/nil", did, err)
	}

	s.SetCompaction(CompactionPolicy{Every: 3, Truncate: true})
	did, err := s.MaybeCompact(ctx)
	if err != nil || !did {
		t.Fatalf("MaybeCompact past threshold = %v/%v, want true/nil", did, err)
	}
	seq := s.Journal().Sequence()
	if base := s.Journal().Base(); base != seq {
		t.Fatalf("base = %d after compaction, want %d", base, seq)
	}
	// Below threshold again: quiet.
	if did, err := s.MaybeCompact(ctx); err != nil || did {
		t.Fatalf("MaybeCompact below threshold = %v/%v, want false/nil", did, err)
	}
}
