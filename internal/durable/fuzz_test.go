package durable

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildJournalBytes assembles a well-formed journal image in memory,
// used to derive interesting fuzz seeds.
func buildJournalBytes(recs []Record) []byte {
	out := append([]byte(nil), journalMagic...)
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		frame := make([]byte, frameHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		copy(frame[frameHeaderLen:], payload)
		out = append(out, frame...)
	}
	return out
}

// FuzzJournalReplay throws arbitrary bytes at ReplayJournal + Reduce
// and asserts the recovery invariants: no panics, every replayed
// record also reduces cleanly, and the reduced table is consistent
// (submission order unique, terminal jobs carry their final state,
// checkpoint payloads are valid JSON).
func FuzzJournalReplay(f *testing.F) {
	clean := buildJournalBytes(sampleRecords())
	f.Add(clean)
	// Truncated tail record: the crash signature.
	f.Add(clean[:len(clean)-3])
	// Truncated frame header.
	f.Add(clean[:len(journalMagic)+4])
	// Corrupted checksum: flip a payload byte of the first record.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(journalMagic)+frameHeaderLen+2] ^= 0x40
	f.Add(corrupt)
	// Duplicate transition after a terminal state.
	f.Add(buildJournalBytes([]Record{
		{Type: RecSubmit, JobID: "job-000001"},
		{Type: RecState, JobID: "job-000001", State: StateDone},
		{Type: RecState, JobID: "job-000001", State: StateFailed, Error: "dup"},
		{Type: RecSubmit, JobID: "job-000001", IdemKey: "dup-submit"},
	}))
	// Orphan records and junk types.
	f.Add(buildJournalBytes([]Record{
		{Type: RecCheckpoint, JobID: "job-000002", Level: 1, Checkpoint: json.RawMessage(`{"x":1}`)},
		{Type: RecordType("junk"), JobID: "job-000002"},
		{Type: RecState},
	}))
	// Header only, empty file, and raw garbage.
	f.Add(append([]byte(nil), journalMagic...))
	f.Add([]byte{})
	f.Add([]byte("remedyWAL1\n\xff\xff\xff\xff garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		info, err := ReplayJournal(context.Background(), path, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			// A bad header is the only error a pure byte-corruption can
			// produce; anything torn mid-stream must end cleanly.
			if len(recs) != 0 {
				t.Fatalf("replay errored (%v) after delivering %d records", err, len(recs))
			}
			return
		}
		if info.Records != len(recs) {
			t.Fatalf("info.Records=%d but fn saw %d", info.Records, len(recs))
		}

		tbl := Reduce(recs)
		seen := make(map[string]bool, len(tbl.Jobs))
		for _, j := range tbl.Jobs {
			if j.ID == "" {
				t.Fatal("reduced job with empty ID")
			}
			if seen[j.ID] {
				t.Fatalf("job %s appears twice in the table", j.ID)
			}
			seen[j.ID] = true
			switch j.State {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted:
			default:
				// Journals written by us only contain known states, but a
				// fuzzed journal may carry any string; the table records it
				// verbatim and the serving layer maps unknowns to failed.
			}
			if j.Attempt < 0 {
				t.Fatalf("job %s has negative attempt %d", j.ID, j.Attempt)
			}
			for lv, cp := range j.Checkpoints {
				if len(cp) == 0 {
					t.Fatalf("job %s level %d has empty checkpoint", j.ID, lv)
				}
				if !json.Valid(cp) {
					t.Fatalf("job %s level %d checkpoint is not valid JSON", j.ID, lv)
				}
			}
			if seq, ok := jobSeq(j.ID); ok && seq > tbl.MaxJobSeq {
				t.Fatalf("MaxJobSeq=%d below job %s", tbl.MaxJobSeq, j.ID)
			}
		}

		// Reduction is deterministic: a second pass yields an identical table.
		again := Reduce(recs)
		w, _ := json.Marshal(tbl.Jobs)
		g, _ := json.Marshal(again.Jobs)
		if string(w) != string(g) || again.Dropped != tbl.Dropped || again.MaxJobSeq != tbl.MaxJobSeq {
			t.Fatal("Reduce is not deterministic")
		}
	})
}

// buildSnapshotBytes assembles a well-formed snapshot file image in
// memory, used to derive torn-snapshot fuzz seeds.
func buildSnapshotBytes(snap *Snapshot) []byte {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil
	}
	out := append([]byte(nil), snapshotMagic...)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	out = append(out, hdr[:]...)
	return append(out, payload...)
}

// FuzzSnapshotDecode throws arbitrary bytes at DecodeSnapshot and
// asserts the torn-snapshot contract: no panics, and anything that is
// not a byte-exact CRC-framed snapshot comes back as ErrSnapshotTorn —
// never as a half-decoded snapshot a recovery could trust.
func FuzzSnapshotDecode(f *testing.F) {
	clean := buildSnapshotBytes(&Snapshot{
		BaseSeq: 9, Term: 2, Leader: "node-b",
		TermStarts: []TermStart{{Term: 1, Leader: "node-a", Seq: 0}, {Term: 2, Leader: "node-b", Seq: 5}},
		Jobs:       []*JobRecord{{ID: "job-000001", State: StateDone}},
	})
	f.Add(clean)
	// The torn signatures: short file, cut payload, cut header.
	f.Add(clean[:len(clean)-4])
	f.Add(clean[:len(snapshotMagic)+3])
	f.Add(clean[:len(snapshotMagic)])
	// Corrupted payload byte: the checksum must catch it.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(snapshotMagic)+frameHeaderLen+1] ^= 0x20
	f.Add(corrupt)
	// Wrong magic (a journal header where a snapshot should be).
	f.Add(append(append([]byte(nil), journalMagic...), clean[len(snapshotMagic):]...))
	// Oversized declared length and raw garbage.
	huge := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(huge[len(snapshotMagic):], ^uint32(0))
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("remedySNAP1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, id, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotTorn) {
				t.Fatalf("decode error %v is not ErrSnapshotTorn", err)
			}
			if snap != nil || id != "" {
				t.Fatal("torn decode leaked a partial snapshot")
			}
			return
		}
		if snap == nil || id == "" {
			t.Fatal("clean decode returned no snapshot or no content address")
		}
		// The content address round-trips: re-decoding the same bytes
		// yields the same ID.
		_, id2, err := DecodeSnapshot(data)
		if err != nil || id2 != id {
			t.Fatalf("re-decode: %v, id %s vs %s", err, id2, id)
		}
	})
}
