package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
)

// mixedRecords builds n journal records shaped like a serving node's
// log: per job a submit, a start, a checkpoint and an outcome (done,
// failed, cancelled, or an interruption and re-run), with a term change
// and a late duplicate outcome every so often — the records Reduce
// folds at every recovery.
func mixedRecords(n int) []Record {
	req := json.RawMessage(`{"kind":"identify","dataset_id":"ds-0123456789abcdef"}`)
	ckpt := json.RawMessage(`{"level":1,"regions":[[0,1],[2,3]]}`)
	recs := make([]Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		recs = append(recs,
			Record{Type: RecSubmit, JobID: id, IdemKey: "k-" + id, Request: req},
			Record{Type: RecState, JobID: id, State: StateRunning},
			Record{Type: RecCheckpoint, JobID: id, Level: 1, Checkpoint: ckpt})
		switch i % 5 {
		case 0, 1:
			recs = append(recs, Record{Type: RecState, JobID: id, State: StateDone})
		case 2:
			recs = append(recs, Record{Type: RecState, JobID: id, State: StateFailed, Error: "injected failure"})
		case 3:
			recs = append(recs,
				Record{Type: RecState, JobID: id, State: StateInterrupted, Error: "interrupted by restart", Attempt: 1},
				Record{Type: RecState, JobID: id, State: StateRunning, Attempt: 1},
				Record{Type: RecState, JobID: id, State: StateDone, Attempt: 1})
		case 4:
			recs = append(recs,
				Record{Type: RecState, JobID: id, State: StateCancelled, Error: "cancelled while queued"},
				Record{Type: RecState, JobID: id, State: StateDone}) // dropped: after terminal
		}
		if i%100 == 0 {
			recs = append(recs, Record{Type: RecTerm, Term: uint64(i/100 + 1), Leader: "node-a"})
		}
	}
	return recs[:n]
}

// BenchmarkReduce folds a 10k-record journal into the job table, the
// step every recovery and the replay-equality check run. allocs/op is
// the deterministic number to compare across changes.
func BenchmarkReduce(b *testing.B) {
	recs := mixedRecords(10_000)
	b.Run("10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if t := Reduce(recs); len(t.Jobs) == 0 {
				b.Fatal("empty table")
			}
		}
	})
}

// BenchmarkJournalAppend appends one state-transition record per op,
// with the fsync every acknowledged transition pays (sync) and without
// it (nosync, the framing and write alone).
func BenchmarkJournalAppend(b *testing.B) {
	ctx := context.Background()
	rec := Record{Type: RecState, JobID: "job-000001", State: StateRunning, Attempt: 1}
	payload, err := json.Marshal(rec)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		sync bool
	}{{"sync", true}, {"nosync", false}} {
		b.Run(mode.name, func(b *testing.B) {
			j, err := OpenJournal(ctx, filepath.Join(b.TempDir(), "journal.wal"), mode.sync)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := j.Close(); err != nil {
					b.Error(err)
				}
			}()
			b.SetBytes(int64(frameHeaderLen + len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(ctx, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
