package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// The tests in this file cover the journal's replicated-log surface:
// positional sequence numbers, suffix truncation, and
// bounded range reads — the primitives internal/cluster builds on.

func TestJournalSequence(t *testing.T) {
	path := testJournalPath(t)
	ctx := context.Background()
	j, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	recs := sampleRecords()
	for i, rec := range recs {
		if got := j.Sequence(); got != uint64(i) {
			t.Fatalf("Sequence before append %d = %d, want %d", i, got, i)
		}
		appendAll(t, j, []Record{rec})
	}
	if got := j.Sequence(); got != uint64(len(recs)) {
		t.Fatalf("Sequence = %d, want %d", got, len(recs))
	}
}

func TestJournalInitSequenceContinuesNumbering(t *testing.T) {
	path := testJournalPath(t)
	ctx := context.Background()
	j1, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, sampleRecords())
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, info := replayAll(t, path)
	j2.InitSequence(uint64(info.Records))

	appendAll(t, j2, sampleRecords()[:1])
	if got := j2.Sequence(); got != uint64(info.Records)+1 {
		t.Fatalf("Sequence after post-recovery append = %d, want %d", got, info.Records+1)
	}
}

func TestJournalTruncateTo(t *testing.T) {
	path := testJournalPath(t)
	ctx := context.Background()
	j, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := sampleRecords()
	appendAll(t, j, recs)
	j.InitSequence(uint64(len(recs)))

	// Truncating past the end errors; to the current length is a no-op.
	if err := j.TruncateTo(ctx, uint64(len(recs))+1); err == nil {
		t.Fatal("TruncateTo past the end succeeded")
	}
	if err := j.TruncateTo(ctx, uint64(len(recs))); err != nil {
		t.Fatalf("no-op TruncateTo: %v", err)
	}

	// Drop the last two records; replay must see exactly the prefix.
	if err := j.TruncateTo(ctx, 2); err != nil {
		t.Fatalf("TruncateTo(2): %v", err)
	}
	if got := j.Sequence(); got != 2 {
		t.Fatalf("Sequence after truncate = %d, want 2", got)
	}
	got, info := replayAll(t, path)
	if info.Torn || len(got) != 2 {
		t.Fatalf("after truncate: %d records torn=%v, want 2 clean", len(got), info.Torn)
	}

	// New appends after the truncation replay cleanly behind the prefix.
	appendAll(t, j, recs[3:])
	got, info = replayAll(t, path)
	if info.Torn || len(got) != 3 {
		t.Fatalf("after truncate+append: %d records torn=%v, want 3 clean", len(got), info.Torn)
	}
	if got[2].State != StateDone {
		t.Fatalf("appended record state = %q, want %q", got[2].State, StateDone)
	}
}

func TestJournalTruncateCutsTornTail(t *testing.T) {
	// A journal with a torn final record: truncating to the intact
	// count removes the damaged bytes so later appends stay readable —
	// the recovery path's fix for the append-behind-damage hazard.
	recs := sampleRecords()
	path := writeJournal(t, recs, func(b []byte) []byte { return b[:len(b)-3] })
	ctx := context.Background()
	j, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, info := replayAll(t, path)
	if !info.Torn {
		t.Fatal("fixture journal not torn")
	}
	if err := j.TruncateTo(ctx, uint64(info.Records)); err != nil {
		t.Fatalf("TruncateTo over torn tail: %v", err)
	}
	appendAll(t, j, recs[len(recs)-1:])
	got, after := replayAll(t, path)
	if after.Torn || len(got) != len(recs) {
		t.Fatalf("after cut+append: %d records torn=%v (%s), want %d clean",
			len(got), after.Torn, after.Reason, len(recs))
	}
}

func TestReadJournalRange(t *testing.T) {
	path := testJournalPath(t)
	ctx := context.Background()
	j, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		want = append(want, Record{Type: RecState, JobID: fmt.Sprintf("job-%06d", i), State: StateRunning})
	}
	appendAll(t, j, want)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		from, max uint64
		wantIDs   []int
	}{
		{0, 3, []int{0, 1, 2}},
		{4, 4, []int{4, 5, 6, 7}},
		{8, 100, []int{8, 9}},
		{10, 5, nil}, // at the end
		{99, 5, nil}, // past the end
		{2, 0, nil},  // zero-length read
	}
	for _, tc := range cases {
		got, err := ReadJournalRange(ctx, path, tc.from, tc.max)
		if err != nil {
			t.Fatalf("ReadJournalRange(%d,%d): %v", tc.from, tc.max, err)
		}
		if len(got) != len(tc.wantIDs) {
			t.Fatalf("ReadJournalRange(%d,%d) = %d records, want %d",
				tc.from, tc.max, len(got), len(tc.wantIDs))
		}
		for i, idx := range tc.wantIDs {
			wantID := fmt.Sprintf("job-%06d", idx)
			if got[i].JobID != wantID {
				t.Errorf("ReadJournalRange(%d,%d)[%d].JobID = %q, want %q",
					tc.from, tc.max, i, got[i].JobID, wantID)
			}
		}
	}
}

func TestReduceTracksTerm(t *testing.T) {
	recs := []Record{
		{Type: RecTerm, Term: 1, Leader: "node-a"},
		{Type: RecSubmit, JobID: "job-000001", Request: json.RawMessage(`{}`)},
		{Type: RecTerm, Term: 2, Leader: "node-b"},
		{Type: RecState, JobID: "job-000001", State: StateDone},
	}
	tbl := Reduce(recs)
	if tbl.Term != 2 || tbl.Leader != "node-b" {
		t.Fatalf("Term/Leader = %d/%q, want 2/node-b", tbl.Term, tbl.Leader)
	}
	if tbl.Dropped != 0 {
		t.Fatalf("term records counted as dropped: %d", tbl.Dropped)
	}
	if len(tbl.Jobs) != 1 || tbl.Jobs[0].State != StateDone {
		t.Fatalf("job table disturbed by term records: %+v", tbl.Jobs)
	}

	// A regressed term (hand-edited journal) must not lower the fence.
	tbl = Reduce(append(recs, Record{Type: RecTerm, Term: 1, Leader: "node-a"}))
	if tbl.Term != 2 || tbl.Leader != "node-b" {
		t.Fatalf("regressed term lowered fence: %d/%q", tbl.Term, tbl.Leader)
	}
}
