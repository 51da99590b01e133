package durable

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/faults"
	"repro/internal/obs"
)

// RecordType discriminates journal records.
type RecordType string

const (
	// RecSubmit records one job's admission: its ID, request body, and
	// idempotency key, plus the initial "queued" state.
	RecSubmit RecordType = "submit"
	// RecState records one job state transition.
	RecState RecordType = "state"
	// RecCheckpoint records one completed identify lattice level for a
	// job, carrying an opaque payload the serving layer encodes.
	RecCheckpoint RecordType = "checkpoint"
	// RecTerm records a leadership term change in a replicated
	// deployment: the term number and the node that leads it. The term
	// is the cluster's fencing token — every replication request
	// carries it, and a journal that contains RecTerm(n) proves its
	// node witnessed term n. Single-node journals never contain one.
	RecTerm RecordType = "term"
)

// Record is one journal entry. The serving layer owns the semantics;
// the journal only frames, checksums, and replays records.
type Record struct {
	Type  RecordType `json:"type"`
	JobID string     `json:"job,omitempty"`

	// Submit fields.
	IdemKey string          `json:"idem_key,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`

	// State fields: the job state the transition enters (recover.go
	// defines the machine).
	State   State  `json:"state,omitempty"`
	Error   string `json:"error,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// Checkpoint fields: the completed lattice level and an opaque
	// snapshot payload.
	Level      int             `json:"level,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`

	// Term fields (RecTerm): the leadership term and the node leading
	// it. On RecState records, Node optionally names the node that ran
	// the transition (work stealing attribution).
	Term   uint64 `json:"term,omitempty"`
	Leader string `json:"leader,omitempty"`
	Node   string `json:"node,omitempty"`
}

// Journal framing: the file opens with a magic+version header; each
// record is [uint32 LE payload length][uint32 LE CRC-32 (IEEE) of the
// payload][payload JSON]. Append-only, one Write syscall per record,
// so a crash can only ever leave a torn tail — which Replay detects
// (short frame, short payload, or checksum mismatch) and stops at.
//
// Two header versions exist. A v1 journal is complete: its first frame
// is record 0. A v2 journal is compacted: the magic is followed by a
// uint64 LE base — the absolute sequence of the first frame in the
// file — and records [0, base) live only in the store's snapshot.
// Fresh journals are written v1 (so a never-compacted fleet keeps
// byte-identical files across nodes); compaction rewrites to v2.
var (
	journalMagic  = []byte("remedyWAL1\n")
	journalMagic2 = []byte("remedyWAL2\n")
)

const (
	frameHeaderLen = 8
	// baseHeaderLen is the v2 compaction-base field after the magic.
	baseHeaderLen = 8
	// maxRecordLen rejects absurd frame lengths during replay: a
	// corrupt length field must not drive a huge allocation.
	maxRecordLen = 64 << 20
)

// ErrJournalClosed is returned by Append after Close.
var ErrJournalClosed = errors.New("durable: journal closed")

// ErrJournalFenced is returned by Append — never AppendReplicated —
// while the journal is fenced. The cluster fences a journal the moment
// its node is deposed: a stale leader's in-flight workers can then
// never journal (and therefore never ack) new work while the node
// rejoins the fleet. Promotion lifts the fence.
var ErrJournalFenced = errors.New("durable: journal fenced (node deposed)")

// ErrCompacted reports that a requested sequence lies below the
// journal's compaction horizon: those records were folded into the
// snapshot and truncated from the file. Replication treats it as the
// signal to catch a lagging follower up with an install-snapshot
// instead of a record backfill.
var ErrCompacted = errors.New("durable: sequence below compaction horizon")

// Journal is the append-only job log. Appends are serialized by an
// internal mutex; replay reads a separate handle, so recovery can
// replay the same path the journal is appending to.
//
// For replication the journal doubles as a positional log: every
// intact record has a sequence number equal to its zero-based index in
// the file. InitSequence seeds the counter from a recovery replay and
// Sequence reports the current length; the cluster layer's replication
// tick compares it with each follower's acknowledged position and
// reads the missing records back with ReadJournalRange.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	sync   bool
	closed bool
	fenced bool
	// base is the compaction horizon: the absolute sequence of the
	// first record physically present in the file (0 for a complete v1
	// journal). seq stays absolute; the file holds records [base, seq).
	base uint64
	seq  uint64
}

// OpenJournal opens (creating if absent) the journal at path for
// appending, validating the header of a non-empty existing file.
// syncEach selects fsync after every append: full
// power-loss durability at a per-append fsync cost. Without it the
// journal survives process crashes (the kernel has the bytes) but a
// simultaneous OS crash may lose the tail — which replay then treats
// as torn, exactly like any other interrupted append.
func OpenJournal(ctx context.Context, path string, syncEach bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("durable: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() //lint:allow errdiscard error-path cleanup; the Stat failure is already being returned
		return nil, fmt.Errorf("durable: open journal: %w", err)
	}
	j := &Journal{f: f, path: path, sync: syncEach}
	if st.Size() == 0 {
		if _, err := f.Write(journalMagic); err != nil {
			_ = f.Close() //lint:allow errdiscard error-path cleanup; the Write failure is already being returned
			return nil, fmt.Errorf("durable: write journal header: %w", err)
		}
	} else {
		base, _, err := readJournalBase(path)
		if err != nil {
			_ = f.Close() //lint:allow errdiscard error-path cleanup; the header error is already being returned
			return nil, fmt.Errorf("durable: %v", err)
		}
		j.base, j.seq = base, base
	}
	obs.LoggerFrom(ctx).Scope("durable").Debug("journal open",
		"path", path, "bytes", st.Size(), "base", j.base)
	return j, nil
}

// readJournalBase reads a journal file's header and returns its
// compaction base (0 for v1) plus the header's byte length.
func readJournalBase(path string) (base uint64, hdrLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close() //lint:allow errdiscard read-only close carries no information
	hdr := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, fmt.Errorf("%s is not a remedy journal (bad header)", path)
	}
	switch string(hdr) {
	case string(journalMagic):
		return 0, int64(len(journalMagic)), nil
	case string(journalMagic2):
		var b [baseHeaderLen]byte
		if _, err := io.ReadFull(f, b[:]); err != nil {
			return 0, 0, fmt.Errorf("%s: truncated compaction header", path)
		}
		return binary.LittleEndian.Uint64(b[:]), int64(len(journalMagic2)) + baseHeaderLen, nil
	default:
		return 0, 0, fmt.Errorf("%s is not a remedy journal (bad header)", path)
	}
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Sequence returns the absolute number of records the journal
// represents — snapshot-folded prefix plus the frames in the file —
// which is the sequence number the next append will receive. It is
// only meaningful after InitSequence seeded the count from a replay (a
// freshly opened journal starts at its compaction base regardless of
// the file's contents).
func (j *Journal) Sequence() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Base returns the compaction horizon: the absolute sequence of the
// first record physically present in the file. Records below it exist
// only in the store's snapshot. Zero means the file is complete.
func (j *Journal) Base() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// InitSequence seeds the sequence counter with the absolute record
// count a recovery replay found (compaction base + intact tail
// records), so appends continue the positional numbering. Call it
// once, before any post-recovery append.
func (j *Journal) InitSequence(n uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq = n
}

// Fence blocks originated appends: after Fence, Append fails with
// ErrJournalFenced while AppendReplicated — the replication apply path
// — still works. See ErrJournalFenced for why deposed nodes fence.
func (j *Journal) Fence() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fenced = true
}

// Unfence lifts a Fence. The cluster calls it on promotion, before the
// RecTerm append that opens the new term.
func (j *Journal) Unfence() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fenced = false
}

// Append frames, checksums, and writes one record. The context is
// used for fault injection and observability only — an append is
// never skipped because ctx is cancelled, since the callers journal
// transitions (including cancellations) that have already happened.
//
// The faults point durable.journal.append fires before the write with
// the record as its argument; its error is returned as a write
// failure would be.
func (j *Journal) Append(ctx context.Context, rec Record) error {
	if err := faults.FireCtx(ctx, faults.JournalAppend, rec); err != nil {
		return fmt.Errorf("durable: journal append: %w", err)
	}
	return j.append(ctx, rec, true)
}

// AppendReplicated is Append without the durable.journal.append faults
// point: the apply path for records arriving from a replication
// stream. A follower replaying its leader's log is not making a new
// durability decision — the record was already journaled once, on the
// leader — so chaos tests that inject append failures target original
// appends only and replication failures are injected at the cluster
// layer's own points instead.
// AppendReplicated also ignores a Fence: only originated appends are
// fenced on a deposed node; applying the new leader's stream is how
// the node catches back up.
func (j *Journal) AppendReplicated(ctx context.Context, rec Record) error {
	return j.append(ctx, rec, false)
}

func (j *Journal) append(ctx context.Context, rec Record, originated bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: journal append: %w", err)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if originated && j.fenced {
		return ErrJournalFenced
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("durable: journal append: %w", err)
	}
	if j.sync {
		// The mutex exists to serialize exactly this: frame write +
		// fsync as one atomic persistence step. Appends deliberately
		// queue behind the disk; that is the durability guarantee.
		//lint:allow heldcall the journal's mutex serializes write+fsync by design; appenders queue behind the persistence barrier
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("durable: journal sync: %w", err)
		}
	}
	j.seq++
	m := obs.MetricsFrom(ctx)
	m.Counter("durable.journal_appends").Inc()
	m.Counter("durable.journal_bytes").Add(int64(len(frame)))
	return nil
}

// TruncateTo discards every record from absolute sequence n onward,
// shrinking the file to the byte length of the records below n (plus
// header) and resetting the sequence counter. Two callers need it:
// recovery, to cut a torn tail before new appends land behind
// unreadable bytes, and a follower reconciling its log with a new
// leader whose log is shorter (the discarded suffix was never
// replicated and is superseded by the new term). Truncating to the
// current length is a no-op; truncating below the compaction base
// fails with ErrCompacted — the caller needs a snapshot install, not a
// truncation, because the records below the cut cannot be re-filled
// one by one.
func (j *Journal) TruncateTo(ctx context.Context, n uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if n < j.base {
		return fmt.Errorf("durable: truncate journal to %d (base %d): %w", n, j.base, ErrCompacted)
	}
	offset, count, _, err := scanFrames(j.path, n-j.base)
	if err != nil {
		return fmt.Errorf("durable: truncate journal: %w", err)
	}
	if j.base+count < n {
		return fmt.Errorf("durable: truncate journal to %d: only %d records present", n, j.base+count)
	}
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("durable: truncate journal: %w", err)
	}
	if st.Size() == offset {
		j.seq = n
		return nil // already exactly n records
	}
	if err := j.f.Truncate(offset); err != nil {
		return fmt.Errorf("durable: truncate journal: %w", err)
	}
	j.seq = n
	obs.MetricsFrom(ctx).Counter("durable.journal_truncations").Inc()
	obs.LoggerFrom(ctx).Scope("durable").Info("journal truncated",
		"records", n, "bytes", offset)
	return nil
}

// CompactTo drops every record below absolute sequence n from the
// file, rewriting it with a v2 header that records n as the new base.
// The caller must already have folded those records into a committed
// snapshot (Store.Compact does); CompactTo itself only rewrites
// framing. The rewrite goes through a temp file + rename, so a crash
// leaves either the old journal or the new one, never a mix. The
// sequence counter is unchanged — it is absolute.
func (j *Journal) CompactTo(ctx context.Context, n uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if n <= j.base {
		return nil // horizon already at or past n
	}
	if n > j.seq {
		return fmt.Errorf("durable: compact journal to %d: sequence is only %d", n, j.seq)
	}
	offset, count, _, err := scanFrames(j.path, n-j.base)
	if err != nil {
		return fmt.Errorf("durable: compact journal: %w", err)
	}
	if j.base+count < n {
		return fmt.Errorf("durable: compact journal to %d: only %d intact records present", n, j.base+count)
	}
	dropped := n - j.base
	//lint:allow heldcall the journal's mutex serializes the rewrite+fsync by design; appends queue behind the compaction exactly as they queue behind fsync
	if err := j.rewriteLocked(n, offset); err != nil {
		return err
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("durable.journal_compactions").Inc()
	m.Counter("durable.records_compacted").Add(int64(dropped))
	obs.LoggerFrom(ctx).Scope("durable").Info("journal compacted",
		"base", n, "dropped", dropped)
	return nil
}

// ResetToBase discards the journal's entire contents and
// reinitializes it as an empty compacted journal whose base (and
// sequence) is n: the follower half of an install-snapshot, run after
// the received snapshot file is committed. Everything the file held is
// superseded by that snapshot.
func (j *Journal) ResetToBase(ctx context.Context, n uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	//lint:allow heldcall the journal's mutex serializes the reset+fsync by design; the snapshot install must be atomic with respect to appends
	if err := j.rewriteLocked(n, -1); err != nil {
		return err
	}
	j.seq = n
	obs.LoggerFrom(ctx).Scope("durable").Info("journal reset to snapshot base", "base", n)
	return nil
}

// rewriteLocked replaces the journal file with a v2-header file whose
// base is newBase, copying the byte range [tailFrom, EOF) of the
// current file after the header (tailFrom < 0 copies nothing), then
// swaps j.f to a handle on the new file. Called with j.mu held; the
// held lock is the point — appends queue behind the rewrite exactly as
// they queue behind fsync.
func (j *Journal) rewriteLocked(newBase uint64, tailFrom int64) error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("durable: rewrite journal: %w", err)
	}
	err = writeFileAtomic(j.path, func(w io.Writer) error {
		if _, werr := w.Write(journalMagic2); werr != nil {
			return werr
		}
		var b [baseHeaderLen]byte
		binary.LittleEndian.PutUint64(b[:], newBase)
		if _, werr := w.Write(b[:]); werr != nil {
			return werr
		}
		if tailFrom >= 0 && tailFrom < st.Size() {
			_, werr := io.Copy(w, io.NewSectionReader(j.f, tailFrom, st.Size()-tailFrom))
			return werr
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("durable: rewrite journal: %w", err)
	}
	f2, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		// The rename landed but we lost our handle on the new inode;
		// appending through the old one would write invisible bytes, so
		// fail closed.
		j.closed = true
		_ = j.f.Close() //lint:allow errdiscard error-path cleanup; the reopen failure is already being returned
		return fmt.Errorf("durable: reopen rewritten journal: %w", err)
	}
	if j.sync {
		if err := f2.Sync(); err != nil {
			j.closed = true
			_ = f2.Close()  //lint:allow errdiscard error-path cleanup; the Sync failure is already being returned
			_ = j.f.Close() //lint:allow errdiscard error-path cleanup; the Sync failure is already being returned
			return fmt.Errorf("durable: sync rewritten journal: %w", err)
		}
	}
	old := j.f
	j.f = f2
	j.base = newBase
	_ = old.Close() //lint:allow errdiscard the pre-rewrite inode is orphaned by the rename; its close reports nothing actionable
	return nil
}

// scanFrames walks the journal's framing (without decoding payloads)
// and returns the byte offset just past the max-th in-file record — or
// past the last intact record, whichever comes first — plus the number
// of intact in-file records it covers and the file's compaction base.
// max and count are file-relative (add base for absolute sequences).
// Damage past the intact prefix is ignored, exactly as replay would.
func scanFrames(path string, max uint64) (offset int64, count uint64, base uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close() //lint:allow errdiscard read-only close carries no information
	base, hdrLen, err := readJournalBase(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := f.Seek(hdrLen, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	r := bufio.NewReader(f)
	offset = hdrLen
	frame := make([]byte, frameHeaderLen)
	var payload []byte
	for count < max {
		if _, err := io.ReadFull(r, frame); err != nil {
			return offset, count, base, nil // clean or torn end: stop at the intact prefix
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxRecordLen {
			return offset, count, base, nil
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, count, base, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return offset, count, base, nil
		}
		offset += int64(frameHeaderLen) + int64(n)
		count++
	}
	return offset, count, base, nil
}

// ReadJournalRange returns up to max intact records starting at
// absolute sequence from. It is the replication backfill read: a
// leader serving a follower that is behind reads the records the
// follower is missing straight from its own file. Reads past the end
// return an empty slice, not an error; a torn tail bounds the readable
// range exactly as replay would. A from below the file's compaction
// base fails with ErrCompacted: those records exist only in the
// snapshot, so the caller must install that instead.
func ReadJournalRange(ctx context.Context, path string, from, max uint64) ([]Record, error) {
	if max == 0 {
		return nil, nil
	}
	base, _, err := readJournalBase(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil // absent journal reads as empty, like replay
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read journal range: %w", err)
	}
	if from < base {
		return nil, fmt.Errorf("durable: read journal range from %d (base %d): %w", from, base, ErrCompacted)
	}
	fileFrom := from - base
	var (
		recs []Record
		idx  uint64
	)
	_, err = ReplayJournal(ctx, path, func(rec Record) error {
		if idx >= fileFrom && uint64(len(recs)) < max {
			recs = append(recs, rec)
		}
		idx++
		if idx >= fileFrom+max {
			return errStopReplay
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, err
	}
	return recs, nil
}

// errStopReplay is a sentinel fn error used to end a replay early once
// a bounded read has what it needs.
var errStopReplay = errors.New("durable: stop replay")

// Close syncs and closes the journal; further Appends fail with
// ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	//lint:allow heldcall final fsync under the closed flag: Close must fence out concurrent appends while it flushes
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("durable: journal close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("durable: journal close: %w", cerr)
	}
	return nil
}

// ReplayInfo reports how a replay ended.
type ReplayInfo struct {
	// Records is the number of records decoded from the file. For a
	// compacted journal this is the tail only; the absolute sequence
	// after the last intact record is Base + Records.
	Records int
	// Base is the file's compaction horizon (0 for a complete journal):
	// the absolute sequence of the first record the replay delivered.
	Base uint64
	// Torn is set when the journal ended in a damaged tail (short
	// frame, short payload, checksum mismatch, or undecodable JSON);
	// Reason describes it. A torn tail is the expected crash signature,
	// not an error: everything before it is trusted.
	Torn   bool
	Reason string
}

// ReplayJournal reads the journal at path front to back, calling fn
// for each intact record in order. It stops cleanly at the first
// damaged frame (see ReplayInfo) — bytes past damage are never
// trusted. A missing file replays as empty. fn's error aborts the
// replay and is returned; so does an error injected at the
// durable.recover.record faults point, which fires before fn for each
// record.
func ReplayJournal(ctx context.Context, path string, fn func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return info, nil
	}
	if err != nil {
		return info, fmt.Errorf("durable: replay: %w", err)
	}
	defer f.Close() //lint:allow errdiscard read-only close carries no information
	r := bufio.NewReader(f)

	hdr := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			info.Torn, info.Reason = true, "truncated header"
			return info, nil
		}
		return info, fmt.Errorf("durable: replay: %w", err)
	}
	switch string(hdr) {
	case string(journalMagic):
	case string(journalMagic2):
		var b [baseHeaderLen]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				info.Torn, info.Reason = true, "truncated compaction header"
				return info, nil
			}
			return info, fmt.Errorf("durable: replay: %w", err)
		}
		info.Base = binary.LittleEndian.Uint64(b[:])
	default:
		return info, fmt.Errorf("durable: %s is not a remedy journal (bad header)", path)
	}

	frame := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			if errors.Is(err, io.EOF) {
				return info, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				info.Torn, info.Reason = true, "torn frame header"
				return info, nil
			}
			return info, fmt.Errorf("durable: replay: %w", err)
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxRecordLen {
			info.Torn, info.Reason = true, fmt.Sprintf("frame length %d exceeds limit", n)
			return info, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				info.Torn, info.Reason = true, "torn payload"
				return info, nil
			}
			return info, fmt.Errorf("durable: replay: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			info.Torn, info.Reason = true, "checksum mismatch"
			return info, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			info.Torn, info.Reason = true, "undecodable record"
			return info, nil
		}
		if err := faults.FireCtx(ctx, faults.RecoverRecord, rec); err != nil {
			return info, fmt.Errorf("durable: replay record %d: %w", info.Records, err)
		}
		if err := fn(rec); err != nil {
			return info, err
		}
		info.Records++
		obs.MetricsFrom(ctx).Counter("durable.records_replayed").Inc()
	}
}
