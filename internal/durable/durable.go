// Package durable is remedyd's crash-safety layer: an append-only,
// checksummed job journal (a write-ahead log) plus a disk-spill store
// for registered datasets, both rooted in one data directory.
//
// The contract the serving layer builds on is small:
//
//   - every job state transition (queued → running → done | failed |
//     cancelled) is appended to the journal *before* it is
//     acknowledged to a client, so an acknowledged job can always be
//     reconstructed;
//
//   - every registered dataset is spilled to disk (canonical CSV plus
//     a JSON sidecar of its registry identity) before the upload is
//     acknowledged, so a recovered journal never references data that
//     no longer exists;
//
//   - long identify traversals checkpoint per completed lattice level,
//     so a job interrupted by a crash resumes from its last completed
//     level instead of restarting.
//
// Recovery replays the journal front to back and reduces it to a job
// table (see Reduce). The journal format is deliberately
// corruption-tolerant in the one way crashes actually corrupt an
// append-only file: a torn or checksum-mismatched tail. Replay stops
// cleanly at the first bad frame and reports how far it got; it never
// panics and never trusts bytes past the damage.
//
// Everything here follows the repository's contracts: ctx-first
// signatures, checked errors, deterministic behavior (no ambient
// clock or entropy), and faults injection points
// (durable.journal.append, durable.recover.record) at the boundaries
// where real deployments fail.
package durable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Layout of a data directory:
//
//	<dir>/journal.wal      the job journal
//	<dir>/snapshot.snap    compaction snapshot (reduced state ≤ horizon)
//	<dir>/datasets/<id>.csv    spilled dataset (canonical WriteCSV form)
//	<dir>/datasets/<id>.json   sidecar: registry identity (DatasetMeta)
//
// The sidecar is written after the CSV and removed before it, so its
// presence is the commit marker: recovery loads only datasets whose
// sidecar exists and ignores orphaned CSVs from interrupted spills.
const (
	journalName = "journal.wal"
	datasetsDir = "datasets"
)

// ErrBadDatasetID rejects dataset IDs that are not safe as file names.
var ErrBadDatasetID = errors.New("durable: dataset id is not a safe file name")

// Store is one data directory: the journal plus the dataset spill
// area. A nil *Store is the documented in-memory mode: the serving
// layer checks for nil before every durability call, so an
// unconfigured -data-dir adds no work to the request path.
type Store struct {
	dir     string
	journal *Journal

	// Compaction state (snapshot.go): the installed policy plus the
	// newest known snapshot horizon and its content address.
	compactMu   sync.Mutex
	policy      CompactionPolicy
	lastSnapSeq uint64
	lastSnapID  string
}

// Open creates (or reopens) the data directory at dir and opens its
// journal for appending. syncEach selects fsync-per-append (see
// OpenJournal).
func Open(ctx context.Context, dir string, syncEach bool) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, datasetsDir), 0o777); err != nil {
		return nil, fmt.Errorf("durable: create data dir: %w", err)
	}
	j, err := OpenJournal(ctx, filepath.Join(dir, journalName), syncEach)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, journal: j}, nil
}

// Journal returns the store's job journal.
func (s *Store) Journal() *Journal { return s.journal }

// Close closes the journal. The spill area needs no teardown.
func (s *Store) Close() error { return s.journal.Close() }

// DatasetMeta is the sidecar identity of one spilled dataset — enough
// to re-admit it into the registry under its original content-derived
// ID after a restart.
type DatasetMeta struct {
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	Target    string   `json:"target"`
	Protected []string `json:"protected"`
	// Bytes preserves the upload's byte count for the restored
	// registry info (0 for server-produced datasets, as at admission).
	Bytes int64 `json:"bytes,omitempty"`
}

// SpilledDataset pairs a recovered sidecar with the path of its CSV.
type SpilledDataset struct {
	Meta    DatasetMeta
	CSVPath string
}

// safeID reports whether id can be embedded in a file name without
// escaping the datasets directory.
func safeID(id string) bool {
	if id == "" || id == "." || id == ".." {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

func (s *Store) datasetPaths(id string) (csvPath, metaPath string) {
	base := filepath.Join(s.dir, datasetsDir, id)
	return base + ".csv", base + ".json"
}

// SpillDataset persists one dataset: write writes the canonical CSV
// body. Both files go through a temp-file rename so a crash mid-spill
// leaves either a complete dataset or an ignorable orphan, never a
// half-written one that recovery would trust.
func (s *Store) SpillDataset(ctx context.Context, meta DatasetMeta, write func(io.Writer) error) error {
	if !safeID(meta.ID) {
		return fmt.Errorf("%w: %q", ErrBadDatasetID, meta.ID)
	}
	csvPath, metaPath := s.datasetPaths(meta.ID)
	if _, err := os.Stat(metaPath); err == nil {
		// Content-addressed IDs make re-spilling the same dataset a
		// no-op: the bytes on disk are already the canonical form.
		return nil
	}
	if err := writeFileAtomic(csvPath, write); err != nil {
		return fmt.Errorf("durable: spill dataset %s: %w", meta.ID, err)
	}
	side, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("durable: spill dataset %s: %w", meta.ID, err)
	}
	err = writeFileAtomic(metaPath, func(w io.Writer) error {
		_, werr := w.Write(side)
		return werr
	})
	if err != nil {
		return fmt.Errorf("durable: spill dataset %s: %w", meta.ID, err)
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("durable.datasets_spilled").Inc()
	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelDebug) {
		lg.Scope("durable").Debug("dataset spilled", "id", meta.ID, "path", csvPath)
	}
	return nil
}

// RemoveDataset deletes a spilled dataset (registry eviction or an
// explicit DELETE). The sidecar goes first so an interrupted removal
// degrades to an orphaned CSV, which recovery ignores. Removing a
// dataset that was never spilled is a no-op.
func (s *Store) RemoveDataset(ctx context.Context, id string) error {
	if !safeID(id) {
		return fmt.Errorf("%w: %q", ErrBadDatasetID, id)
	}
	csvPath, metaPath := s.datasetPaths(id)
	if err := os.Remove(metaPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("durable: remove dataset %s: %w", id, err)
	}
	if err := os.Remove(csvPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("durable: remove dataset %s: %w", id, err)
	}
	obs.MetricsFrom(ctx).Counter("durable.datasets_removed").Inc()
	return nil
}

// LoadDataset returns one committed spilled dataset by ID, or
// os.ErrNotExist if it was never spilled (or its spill never
// committed). It is the single-dataset read behind the cluster's
// fetch-on-miss dataset transfer: the spill file is the transfer
// format, streamed as-is.
func (s *Store) LoadDataset(_ context.Context, id string) (SpilledDataset, error) {
	if !safeID(id) {
		return SpilledDataset{}, fmt.Errorf("%w: %q", ErrBadDatasetID, id)
	}
	csvPath, metaPath := s.datasetPaths(id)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		return SpilledDataset{}, fmt.Errorf("durable: load dataset %s: %w", id, err)
	}
	var meta DatasetMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return SpilledDataset{}, fmt.Errorf("durable: load dataset %s: malformed sidecar: %w", id, err)
	}
	if _, err := os.Stat(csvPath); err != nil {
		return SpilledDataset{}, fmt.Errorf("durable: load dataset %s: %w", id, err)
	}
	return SpilledDataset{Meta: meta, CSVPath: csvPath}, nil
}

// LoadDatasets returns every committed spilled dataset, sorted by ID
// for a deterministic recovery order. Orphaned CSVs (no sidecar) and
// unreadable sidecars are skipped, not fatal: recovery restores what
// it can prove complete.
func (s *Store) LoadDatasets(ctx context.Context) ([]SpilledDataset, error) {
	dir := filepath.Join(s.dir, datasetsDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list datasets: %w", err)
	}
	lg := obs.LoggerFrom(ctx).Scope("durable")
	var out []SpilledDataset
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			lg.Warn("skipping unreadable dataset sidecar", "file", name, "err", err)
			continue
		}
		var meta DatasetMeta
		if err := json.Unmarshal(raw, &meta); err != nil || !safeID(meta.ID) {
			lg.Warn("skipping malformed dataset sidecar", "file", name, "err", err)
			continue
		}
		csvPath, _ := s.datasetPaths(meta.ID)
		if _, err := os.Stat(csvPath); err != nil {
			lg.Warn("skipping dataset with missing CSV", "id", meta.ID, "err", err)
			continue
		}
		out = append(out, SpilledDataset{Meta: meta, CSVPath: csvPath})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	obs.MetricsFrom(ctx).Counter("durable.datasets_restored").Add(int64(len(out)))
	return out, nil
}

// writeFileAtomic writes via a temp file in the target's directory and
// renames it into place, so the destination is never observable
// half-written.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		_ = tmp.Close()        //lint:allow errdiscard error-path cleanup; the primary error is already being returned
		_ = os.Remove(tmpName) //lint:allow errdiscard error-path cleanup of the temp file
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return nil
}
