package durable

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

func testJournalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.wal")
}

func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	ctx := context.Background()
	for i, rec := range recs {
		if err := j.Append(ctx, rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func replayAll(t *testing.T, path string) ([]Record, ReplayInfo) {
	t.Helper()
	var got []Record
	info, err := ReplayJournal(context.Background(), path, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, info
}

func sampleRecords() []Record {
	req := json.RawMessage(`{"kind":"identify","dataset":"ds-1"}`)
	return []Record{
		{Type: RecSubmit, JobID: "job-000001", IdemKey: "k1", Request: req},
		{Type: RecState, JobID: "job-000001", State: StateRunning},
		{Type: RecCheckpoint, JobID: "job-000001", Level: 3, Checkpoint: json.RawMessage(`{"level":3}`)},
		{Type: RecState, JobID: "job-000001", State: StateDone},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := testJournalPath(t)
	j, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	appendAll(t, j, want)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, info := replayAll(t, path)
	if info.Torn {
		t.Fatalf("unexpected torn tail: %s", info.Reason)
	}
	if info.Records != len(want) || len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if string(w) != string(g) {
			t.Errorf("record %d: got %s want %s", i, g, w)
		}
	}
}

func TestJournalReopenAppends(t *testing.T) {
	path := testJournalPath(t)
	ctx := context.Background()
	j1, err := OpenJournal(ctx, path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, sampleRecords()[:2])
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(ctx, path, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	appendAll(t, j2, sampleRecords()[2:])
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	got, info := replayAll(t, path)
	if info.Torn || len(got) != 4 {
		t.Fatalf("got %d records (torn=%v %s), want 4 clean", len(got), info.Torn, info.Reason)
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	j, err := OpenJournal(context.Background(), testJournalPath(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	err = j.Append(context.Background(), Record{Type: RecState, JobID: "job-000001", State: StateDone})
	if !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("append after close: %v, want ErrJournalClosed", err)
	}
}

func TestJournalMissingFileReplaysEmpty(t *testing.T) {
	got, info := replayAll(t, filepath.Join(t.TempDir(), "absent.wal"))
	if len(got) != 0 || info.Torn || info.Records != 0 {
		t.Fatalf("missing file: got %d records, info %+v", len(got), info)
	}
}

func TestJournalBadHeaderRejected(t *testing.T) {
	path := testJournalPath(t)
	if err := os.WriteFile(path, []byte("not a journal at all\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(context.Background(), path, false); err == nil {
		t.Fatal("OpenJournal accepted a non-journal file")
	}
	_, err := ReplayJournal(context.Background(), path, func(Record) error { return nil })
	if err == nil {
		t.Fatal("ReplayJournal accepted a non-journal file")
	}
}

// writeJournal writes a complete journal then applies mutate to its
// bytes, returning the path — the crash/corruption test helper.
func writeJournal(t *testing.T, recs []Record, mutate func([]byte) []byte) string {
	t.Helper()
	path := testJournalPath(t)
	j, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalTruncatedTail(t *testing.T) {
	recs := sampleRecords()
	// Chop off the last 3 bytes: the final record's payload is torn.
	path := writeJournal(t, recs, func(b []byte) []byte { return b[:len(b)-3] })
	got, info := replayAll(t, path)
	if !info.Torn {
		t.Fatal("truncated journal not reported as torn")
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("got %d records, want %d (all but the torn one)", len(got), len(recs)-1)
	}
}

func TestJournalTruncatedMidHeader(t *testing.T) {
	recs := sampleRecords()
	// Leave the magic plus 5 bytes: a torn frame header.
	path := writeJournal(t, recs, func(b []byte) []byte { return b[:len(journalMagic)+5] })
	got, info := replayAll(t, path)
	if !info.Torn || len(got) != 0 {
		t.Fatalf("got %d records (torn=%v), want 0 torn", len(got), info.Torn)
	}
}

func TestJournalCorruptedChecksum(t *testing.T) {
	recs := sampleRecords()
	// Flip one payload byte of the second record; replay must stop
	// before it and never deliver the records behind the damage.
	path := writeJournal(t, recs, func(b []byte) []byte {
		off := len(journalMagic)
		n := binary.LittleEndian.Uint32(b[off : off+4])
		off += frameHeaderLen + int(n) // start of record 2's frame
		b[off+frameHeaderLen] ^= 0xFF
		return b
	})
	got, info := replayAll(t, path)
	if !info.Torn || info.Reason != "checksum mismatch" {
		t.Fatalf("info = %+v, want checksum mismatch", info)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1 (damage must hide everything behind it)", len(got))
	}
}

func TestJournalOversizedFrameRejected(t *testing.T) {
	path := writeJournal(t, sampleRecords()[:1], func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(journalMagic):], maxRecordLen+1)
		return b
	})
	got, info := replayAll(t, path)
	if !info.Torn || len(got) != 0 {
		t.Fatalf("oversized frame: got %d records (torn=%v)", len(got), info.Torn)
	}
}

func TestJournalAppendFault(t *testing.T) {
	j, err := OpenJournal(context.Background(), testJournalPath(t), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	boom := errors.New("disk full")
	calls := 0
	faults.Set(faults.JournalAppend, func(arg any) error {
		calls++
		if _, ok := arg.(Record); !ok {
			t.Errorf("hook arg = %T, want Record", arg)
		}
		return boom
	})
	t.Cleanup(func() { faults.Clear(faults.JournalAppend) })
	err = j.Append(context.Background(), Record{Type: RecState, JobID: "job-000001", State: StateDone})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("append = %v (calls=%d), want injected failure", err, calls)
	}
	// The failed append must leave no partial frame behind.
	got, info := replayAll(t, j.Path())
	if len(got) != 0 || info.Torn {
		t.Fatalf("journal not empty after injected failure: %d records torn=%v", len(got), info.Torn)
	}
}

func TestJournalRecoverRecordFault(t *testing.T) {
	path := testJournalPath(t)
	j, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("bad sector")
	seen := 0
	faults.Set(faults.RecoverRecord, func(any) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	t.Cleanup(func() { faults.Clear(faults.RecoverRecord) })
	_, err = ReplayJournal(context.Background(), path, func(Record) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("replay = %v, want injected failure", err)
	}
}

// TestJournalFrameFormat pins the on-disk framing so accidental format
// changes fail loudly: magic header, then LE length + LE CRC32(IEEE).
func TestJournalFrameFormat(t *testing.T) {
	rec := Record{Type: RecState, JobID: "job-000007", State: StateRunning}
	path := testJournalPath(t)
	j, err := OpenJournal(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []Record{rec})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:len(journalMagic)]) != string(journalMagic) {
		t.Fatalf("journal does not start with magic %q", journalMagic)
	}
	payload, _ := json.Marshal(rec)
	frame := raw[len(journalMagic):]
	if got := binary.LittleEndian.Uint32(frame[0:4]); got != uint32(len(payload)) {
		t.Errorf("frame length = %d, want %d", got, len(payload))
	}
	if got := binary.LittleEndian.Uint32(frame[4:8]); got != crc32.ChecksumIEEE(payload) {
		t.Errorf("frame checksum = %#x, want %#x", got, crc32.ChecksumIEEE(payload))
	}
	if string(frame[frameHeaderLen:]) != string(payload) {
		t.Errorf("frame payload = %s, want %s", frame[frameHeaderLen:], payload)
	}
}

func TestJournalReplayDeterministic(t *testing.T) {
	recs := sampleRecords()
	for i := 0; i < 20; i++ {
		recs = append(recs, Record{
			Type: RecState, JobID: fmt.Sprintf("job-%06d", i), State: StateRunning,
		})
	}
	path := writeJournal(t, recs, func(b []byte) []byte { return b })
	first, _ := replayAll(t, path)
	for i := 0; i < 3; i++ {
		again, _ := replayAll(t, path)
		w, _ := json.Marshal(first)
		g, _ := json.Marshal(again)
		if string(w) != string(g) {
			t.Fatalf("replay %d differed from first replay", i)
		}
	}
}
