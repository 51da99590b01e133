package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The replication wire protocol. One request carries a contiguous run
// of journal records starting at FromSeq — empty for a pure heartbeat
// — plus the sender's term, total log length, and full term history
// (TermStarts). The history is the fork fence: a follower whose own
// term history disagrees with the leader's knows its log diverged at
// the first disagreeing entry's position and truncates back to it
// before accepting more records. The response is the receiver's term
// and how much log it now holds; Rejected means the sender's term is
// stale (or lost a same-term tie) and it must step down.
type replicateRequest struct {
	Term       uint64           `json:"term"`
	Leader     string           `json:"leader"`
	LeaderSeq  uint64           `json:"leader_seq"`
	FromSeq    uint64           `json:"from_seq"`
	TermStarts []termStart      `json:"term_starts,omitempty"`
	Records    []durable.Record `json:"records,omitempty"`
}

type replicateResponse struct {
	Term     uint64 `json:"term"`
	Leader   string `json:"leader,omitempty"`
	HaveSeq  uint64 `json:"have_seq"`
	Rejected bool   `json:"rejected,omitempty"`
	// NeedSnapshot asks the leader to install its snapshot instead of
	// backfilling records: the receiver's fork point (or position) is
	// below a compaction horizon, so the frames record-by-record
	// reconciliation would need no longer exist.
	NeedSnapshot bool `json:"need_snapshot,omitempty"`
}

// snapshotRequest ships a leader's whole snapshot file to a follower
// that positional backfill cannot catch up — its position or fork
// point is behind the leader's compaction horizon. Raw is the
// snapshot file verbatim; ID is its content address, which the
// follower re-derives from the bytes before committing anything.
type snapshotRequest struct {
	Term   uint64 `json:"term"`
	Leader string `json:"leader"`
	ID     string `json:"id"`
	Raw    []byte `json:"raw"`
}

// batchMax bounds the records in one replication send; a
// further-behind follower catches up over several ticks.
const batchMax = 256

// replicateAll streams the journal to every follower, one send per
// peer per tick. A peer whose position is unknown (fresh leadership)
// gets a pure heartbeat and reports its HaveSeq back; from then on it
// receives the records it is missing, batchMax at a time, read
// straight from the journal file. The same send is the lease renewal:
// hearing it is what stops a follower's promotion clock.
func (n *Node) replicateAll(ctx context.Context) {
	n.mu.Lock()
	term := n.term
	starts := append([]termStart(nil), n.termStarts...)
	type target struct {
		p     *peerState
		known bool
		acked uint64
	}
	targets := make([]target, 0, len(n.peers))
	for _, id := range sortedKeys(n.peers) {
		p := n.peers[id]
		targets = append(targets, target{p, p.known, p.acked})
	}
	n.mu.Unlock()

	seq := n.journal.Sequence()
	minAcked := seq
	for _, t := range targets {
		if t.known && t.acked < n.journal.Base() {
			// The records this peer needs were compacted away: no journal
			// frame below the base exists to backfill from. Install the
			// snapshot instead; positional replication resumes from its
			// horizon on the next tick.
			n.sendSnapshot(ctx, term, t.p)
			continue
		}
		req := replicateRequest{Term: term, Leader: n.cfg.ID, LeaderSeq: seq, FromSeq: seq, TermStarts: starts}
		if t.known && t.acked < seq {
			recs, err := durable.ReadJournalRange(ctx, n.journal.Path(), t.acked, batchMax)
			if errors.Is(err, durable.ErrCompacted) {
				// A compaction raced this tick past the peer's position.
				n.sendSnapshot(ctx, term, t.p)
				continue
			}
			if err != nil {
				n.logger.Error("replication backfill read failed", "peer", t.p.id, "err", err)
				continue
			}
			req.FromSeq = t.acked
			req.Records = recs
		}
		if err := faults.FireCtx(ctx, faults.ClusterReplicate, n.cfg.ID+"→"+t.p.id); err != nil {
			// The injected partition: the frames never leave this node.
			n.logger.Warn("replication send suppressed", "peer", t.p.id, "err", err)
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			n.logger.Error("replication request marshal failed", "err", err)
			return
		}
		// The replication stream is a traced hop like any other: a
		// deterministic per-send identity (leader/term/position — no
		// entropy, no clock) rides the headers via the shared client.
		sctx := obs.WithTraceContext(ctx, obs.TraceContext{
			TraceID: fmt.Sprintf("%s/repl-t%d-s%06d", n.cfg.ID, term, seq),
			Via:     n.cfg.ID,
		})
		var resp replicateResponse
		if err := t.p.client.DoJSON(sctx, http.MethodPost, "/cluster/replicate", body, &resp); err != nil {
			n.logger.Warn("replication send failed", "peer", t.p.id, "err", err)
			continue
		}
		if resp.Rejected {
			n.depose(resp.Term, resp.Leader, "replication rejected by higher term")
			return
		}
		if resp.NeedSnapshot {
			// The peer's fork point is below a compaction horizon; only
			// the snapshot file can reconcile it.
			n.sendSnapshot(ctx, term, t.p)
			continue
		}
		n.mu.Lock()
		t.p.known, t.p.acked = true, resp.HaveSeq
		n.mu.Unlock()
		// Per-follower lag (frames behind this leader's journal): the
		// number /readyz and the fleet view surface per node.
		n.metrics.Gauge(obs.WithLabel("cluster.replication_lag", "peer", t.p.id)).
			Set(float64(seq - resp.HaveSeq))
		if resp.HaveSeq < minAcked {
			minAcked = resp.HaveSeq
		}
	}
	n.metrics.Gauge("cluster.replication_lag").Set(float64(seq - minAcked))
}

// sendSnapshot ships the snapshot file to one follower that positional
// backfill cannot reach: the frames it needs were compacted away. The
// follower verifies the content address, commits the file, resets its
// journal to the horizon, and acks HaveSeq = horizon — from where the
// ordinary record stream resumes next tick.
func (n *Node) sendSnapshot(ctx context.Context, term uint64, p *peerState) {
	raw, id, snap, err := n.srv.Store().SnapshotRaw(ctx)
	if err != nil {
		n.logger.Error("snapshot read for install failed", "peer", p.id, "err", err)
		return
	}
	if err := faults.FireCtx(ctx, faults.ClusterReplicate, n.cfg.ID+"→"+p.id); err != nil {
		n.logger.Warn("snapshot send suppressed", "peer", p.id, "err", err)
		return
	}
	body, err := json.Marshal(snapshotRequest{Term: term, Leader: n.cfg.ID, ID: id, Raw: raw})
	if err != nil {
		n.logger.Error("snapshot request marshal failed", "err", err)
		return
	}
	sctx := obs.WithTraceContext(ctx, obs.TraceContext{
		TraceID: fmt.Sprintf("%s/snap-t%d-b%06d", n.cfg.ID, term, snap.BaseSeq),
		Via:     n.cfg.ID,
	})
	var resp replicateResponse
	if err := p.client.DoJSON(sctx, http.MethodPost, "/cluster/snapshot", body, &resp); err != nil {
		n.logger.Warn("snapshot send failed", "peer", p.id, "err", err)
		return
	}
	if resp.Rejected {
		n.depose(resp.Term, resp.Leader, "snapshot install rejected by higher term")
		return
	}
	n.mu.Lock()
	p.known, p.acked = true, resp.HaveSeq
	n.mu.Unlock()
	n.events.Append("snapshot", fmt.Sprintf("snapshot %s (horizon %d) installed on %s", id, snap.BaseSeq, p.id))
	n.logger.Info("snapshot installed on follower", "peer", p.id, "base", snap.BaseSeq, "have", resp.HaveSeq)
}

// applySnapshot is the follower half of snapshot installation. Term
// fencing mirrors applyReplicate exactly — a snapshot is just a very
// large replication frame — and the whole function runs under applyMu
// so no record stream interleaves with the file swap. A deposed node
// contacted by a current-term leader rejoins inline first.
func (n *Node) applySnapshot(ctx context.Context, req snapshotRequest) (replicateResponse, int, string) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	if n.role == RoleDeposed && req.Term >= n.term {
		n.mu.Unlock()
		n.rejoinLocked(ctx, req.Term, req.Leader)
		n.mu.Lock()
	}
	if n.role == RoleDeposed {
		n.mu.Unlock()
		return replicateResponse{}, http.StatusServiceUnavailable,
			"cluster: node is deposed; rejoining the fleet"
	}
	if req.Term < n.term {
		resp := replicateResponse{Term: n.term, Leader: n.leader, Rejected: true}
		n.mu.Unlock()
		n.metrics.Counter("cluster.replicate_rejected").Inc()
		n.logger.Warn("rejected stale-term snapshot install",
			"from", req.Leader, "their_term", req.Term, "our_term", resp.Term)
		return resp, http.StatusOK, ""
	}
	if req.Term == n.term && n.role == RoleLeader {
		if req.Leader < n.cfg.ID {
			n.mu.Unlock()
			n.depose(req.Term, req.Leader, "same-term leader tie; lower node ID wins")
			return replicateResponse{}, http.StatusServiceUnavailable,
				"cluster: node is deposed; rejoining the fleet"
		}
		resp := replicateResponse{Term: n.term, Leader: n.cfg.ID, Rejected: true}
		n.mu.Unlock()
		n.metrics.Counter("cluster.replicate_rejected").Inc()
		return resp, http.StatusOK, ""
	}
	if req.Term > n.term && n.role == RoleLeader {
		n.mu.Unlock()
		n.depose(req.Term, req.Leader, "superseded while leading")
		return replicateResponse{}, http.StatusServiceUnavailable,
			"cluster: node is deposed; rejoining the fleet"
	}
	if req.Term > n.term {
		n.term = req.Term
		n.metrics.Gauge("cluster.leader_term").Set(float64(req.Term))
		n.events.Append("term", fmt.Sprintf("adopted term %d led by %s", req.Term, req.Leader))
	}
	n.leader = req.Leader
	n.missed = 0
	term := n.term
	n.mu.Unlock()

	// The store verifies the content address against the raw bytes,
	// commits the file atomically, and resets the journal to the
	// snapshot's horizon — everything the local log held is superseded.
	//lint:allow heldcall applyMu serializes the snapshot install against the record stream; the fsync is the installed snapshot's durability point
	snap, err := n.srv.Store().InstallSnapshot(ctx, req.Raw, req.ID)
	if err != nil {
		n.logger.Error("snapshot install failed", "from", req.Leader, "err", err)
		return replicateResponse{}, http.StatusInternalServerError,
			"cluster: install snapshot: " + err.Error()
	}
	n.mu.Lock()
	n.termStarts = append([]termStart(nil), snap.TermStarts...)
	n.mu.Unlock()
	n.metrics.Counter("cluster.snapshot_installs").Inc()
	n.events.Append("snapshot", fmt.Sprintf("installed snapshot at horizon %d from %s", snap.BaseSeq, req.Leader))
	n.logger.Info("snapshot installed", "from", req.Leader, "base", snap.BaseSeq, "jobs", len(snap.Jobs))
	return replicateResponse{Term: term, HaveSeq: n.journal.Sequence()}, http.StatusOK, ""
}

// applyReplicate is the follower half: terms are checked, the lease
// clock resets, the term histories are reconciled (truncating a forked
// local suffix), and the records land positionally via
// AppendReplicated. The whole function runs under applyMu — two
// concurrent requests for the same records (a timed-out send still
// executing while the retrying client's second attempt arrives) must
// not both observe the same log length and double-append. It returns
// the response plus an HTTP status (a non-200 status means the body is
// an error message, not a response).
func (n *Node) applyReplicate(ctx context.Context, req replicateRequest) (replicateResponse, int, string) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	if n.role == RoleDeposed && req.Term >= n.term {
		// The fleet's current leader reached this deposed node before
		// its own rejoin probe did: rejoin inline — demote the engine,
		// become a follower — and process this very request as one.
		n.mu.Unlock()
		n.rejoinLocked(ctx, req.Term, req.Leader)
		n.mu.Lock()
	}
	if n.role == RoleDeposed {
		n.mu.Unlock()
		return replicateResponse{}, http.StatusServiceUnavailable,
			"cluster: node is deposed; rejoining the fleet"
	}
	if req.Term < n.term {
		resp := replicateResponse{Term: n.term, Leader: n.leader, Rejected: true}
		n.mu.Unlock()
		n.metrics.Counter("cluster.replicate_rejected").Inc()
		n.logger.Warn("rejected stale-term replication",
			"from", req.Leader, "their_term", req.Term, "our_term", resp.Term)
		return resp, http.StatusOK, ""
	}
	if req.Term == n.term && n.role == RoleLeader {
		// Two nodes claim the same term: both sides of a partition
		// promoted to it. Tie-break like the bootstrap election — lowest
		// node ID wins — so exactly one survives contact: the higher ID
		// deposes itself, the lower rejects so its caller steps down.
		if req.Leader < n.cfg.ID {
			n.mu.Unlock()
			n.depose(req.Term, req.Leader, "same-term leader tie; lower node ID wins")
			return replicateResponse{}, http.StatusServiceUnavailable,
				"cluster: node is deposed; rejoining the fleet"
		}
		resp := replicateResponse{Term: n.term, Leader: n.cfg.ID, Rejected: true}
		n.mu.Unlock()
		n.metrics.Counter("cluster.replicate_rejected").Inc()
		n.logger.Warn("rejected same-term replication; this node holds the tie-break",
			"from", req.Leader, "term", req.Term)
		return resp, http.StatusOK, ""
	}
	if req.Term > n.term && n.role == RoleLeader {
		// Another node leads a later term: this node's journal holds its
		// own RecTerm (and possibly more) that the new leader's log does
		// not — a fork, and this node's engine is live on it. Step aside
		// with the journal fenced; the rejoin path (next tick, or the
		// leader's next contact) demotes the engine and re-enters as a
		// follower, whose reconciliation then heals the forked journal.
		n.mu.Unlock()
		n.depose(req.Term, req.Leader, "superseded while leading")
		return replicateResponse{}, http.StatusServiceUnavailable,
			"cluster: node is deposed; rejoining the fleet"
	}
	if req.Term > n.term {
		n.term = req.Term
		n.metrics.Gauge("cluster.leader_term").Set(float64(req.Term))
		n.events.Append("term", fmt.Sprintf("adopted term %d led by %s", req.Term, req.Leader))
	}
	adopted := n.leader != req.Leader
	n.leader = req.Leader
	n.missed = 0
	term := n.term
	mine := append([]termStart(nil), n.termStarts...)
	n.mu.Unlock()
	if adopted {
		// Keep /readyz honest: a standby follower is still not-ready
		// (writes forward to the leader), but "no current term" stops
		// being true the moment a heartbeat names one.
		n.srv.SetNotReady(fmt.Sprintf("follower of %s at term %d; writes forward to the leader", req.Leader, term))
	}

	local := n.journal.Sequence()
	if cut, forked := forkPoint(req.TermStarts, mine); forked && cut < local {
		// The logs demonstrably diverge at cut: everything this node
		// holds from there is a dead leadership's unreplicated tail, not
		// the fleet's history. Cut it and let the stream re-fill — the
		// rejoin path for a crashed leader whose fork would otherwise
		// survive (it can be the same length as the fleet's log, so no
		// length check can see it).
		n.logger.Warn("local log forked from leader's; truncating",
			"fork_at", cut, "local_seq", local, "leader", req.Leader, "term", req.Term)
		if err := n.journal.TruncateTo(ctx, cut); err != nil {
			if errors.Is(err, durable.ErrCompacted) {
				// The fork point is below this node's own compaction
				// horizon: the frames record-level reconciliation would
				// rewind through no longer exist locally. Ask the leader
				// for its snapshot instead.
				n.logger.Warn("fork point below compaction horizon; requesting snapshot",
					"fork_at", cut, "base", n.journal.Base(), "leader", req.Leader)
				return replicateResponse{Term: term, HaveSeq: local, NeedSnapshot: true}, http.StatusOK, ""
			}
			n.logger.Error("fork truncation failed", "err", err)
			return replicateResponse{}, http.StatusInternalServerError,
				"cluster: fork truncation failed: " + err.Error()
		}
		n.mu.Lock()
		kept := n.termStarts[:0]
		for _, ts := range n.termStarts {
			if ts.Seq < cut {
				kept = append(kept, ts)
			}
		}
		n.termStarts = kept
		n.mu.Unlock()
		n.metrics.Counter("cluster.log_truncations").Inc()
		local = cut
	}
	if local > req.LeaderSeq {
		// Longer than the leader's whole log yet with an agreeing term
		// history: not a shape replication can produce. Step aside rather
		// than guess.
		n.depose(req.Term, req.Leader, "log diverged from leader")
		return replicateResponse{}, http.StatusServiceUnavailable,
			"cluster: node is deposed; rejoining the fleet"
	}
	applied := int64(0)
	for i, rec := range req.Records {
		pos := req.FromSeq + uint64(i)
		if pos < local {
			continue // overlap: already applied
		}
		if pos > local {
			break // gap: the leader will backfill from our HaveSeq
		}
		// Held across the fsync on purpose: applyMu is the fence that
		// keeps frame application, truncation, and promotion mutually
		// exclusive; a follower applying frames has nothing else to do.
		//lint:allow heldcall applyMu serializes frame application against truncation and promotion; the fsync is the applied frame's durability point
		if err := n.journal.AppendReplicated(ctx, rec); err != nil {
			n.logger.Error("replicated append failed", "seq", pos, "err", err)
			break
		}
		local++
		applied++
		if rec.Type == durable.RecTerm {
			// Track term history arriving through the log itself (a
			// replayed election from before this node joined).
			n.mu.Lock()
			n.termStarts = append(n.termStarts, termStart{Term: rec.Term, Leader: rec.Leader, Seq: pos})
			if rec.Term > n.term {
				n.term, n.leader = rec.Term, rec.Leader
				term = n.term
			}
			n.mu.Unlock()
		}
	}
	n.metrics.Counter("cluster.records_applied").Add(applied)
	return replicateResponse{Term: term, HaveSeq: n.journal.Sequence()}, http.StatusOK, ""
}

// forkPoint compares the leader's term history against the local one
// and returns the position where the logs demonstrably diverge: the
// first history entry the two sides disagree on. ok is false when the
// histories are identical — then the local log is a true prefix of the
// leader's, because every record after the last shared RecTerm was
// appended by that entry's leader and replicated positionally from it.
// When one history merely extends the other, the logs only fork from
// the first extra entry's position; a local log that ends at or before
// that position is just behind, which the caller's cut-versus-length
// check excludes.
func forkPoint(leader, local []termStart) (cut uint64, ok bool) {
	k := 0
	for k < len(leader) && k < len(local) && leader[k] == local[k] {
		k++
	}
	if k == len(leader) && k == len(local) {
		return 0, false
	}
	cut = math.MaxUint64
	if k < len(leader) {
		cut = leader[k].Seq
	}
	if k < len(local) && local[k].Seq < cut {
		cut = local[k].Seq
	}
	return cut, true
}
