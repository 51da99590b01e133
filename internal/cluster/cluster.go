// Package cluster turns a fleet of remedyd nodes into one replicated
// service on nothing but the standard library and the repo's own
// layers: the durable journal becomes a positional replicated log, a
// deterministic lease elects leaders without a wall clock, datasets
// shard across the fleet by content-hash ownership, and idle followers
// steal queued work from the leader.
//
// # Design
//
// One node leads; the rest follow. The leader is the only node whose
// engine serves API traffic — followers forward requests to it — and
// the only node that appends original records to its journal. Each
// leader tick streams the journal's new records to every follower over
// POST /cluster/replicate; a follower applies them positionally (its
// record i is the leader's record i, always) via AppendReplicated, so
// a follower's journal file is byte-identical to the leader's prefix
// it has received.
//
// Leadership is fenced by terms recorded in the journal itself
// (durable.RecTerm). Every replication and steal request carries the
// sender's term; a receiver that has witnessed a higher term rejects
// the request, and a leader whose send is rejected steps down. Terms
// make split-brain harmless rather than impossible: a superseded
// leader is deposed on contact, fences its journal so it can never
// ack another write, and rejoins the fleet live: a later tick probes
// the current leader, the engine demotes, and the node re-enters as
// a follower of the higher term — no restart required.
//
// Forks are reconciled structurally. Every fork begins at a
// leadership change — only leaders append original records, so two
// logs can only disagree from the position where a new leader's
// RecTerm displaced a dead leader's unreplicated tail. Each
// replication request therefore carries the leader's term history
// (every RecTerm's term, leader, and position); a follower compares
// it with its own, truncates its log back to the first disagreement
// (durable.Journal.TruncateTo), and lets the stream re-fill it. A
// crashed leader that restarts with a forked tail — even one the same
// length as the fleet's log — heals on its first heartbeat instead of
// replaying divergent history at a later promotion.
//
// There is no clock anywhere in the control flow. All periodic work —
// heartbeats, lease accounting, promotion, dataset pushes, steal
// attempts, stolen-work timeouts — happens in Tick, which the caller
// drives from a timer (cmd/remedyd) or by hand (tests). A follower
// counts the ticks since it last heard a replication request; when the
// silence exceeds its rank-staggered share of the lease it appends the
// next term's RecTerm to its own journal and promotes, replaying the
// replicated log into a live engine (serve.Server.Promote). Ranks
// stagger deterministically — the first follower in node-ID order
// waits one lease, the second two — so exactly one node moves first.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Node roles. A node is a follower from birth until it promotes;
// deposed is a quarantine, not a grave: the journal is fenced and the
// engine idles until tickDeposed (or an inbound replication at a
// current term) rejoins the node as a follower.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
	RoleDeposed  = "deposed"
)

// Config wires one node into the fleet. Zero values take the
// documented defaults.
type Config struct {
	// ID is this node's name; it must be a key of Peers.
	ID string
	// Peers maps every fleet member's node ID — this node included —
	// to its base URL. All nodes must agree on this map; it is the
	// election roster and the shard ring.
	Peers map[string]string
	// LeaseTicks is the lease length in ticks (default 3): a follower
	// of rank r among the non-leader node IDs promotes itself after
	// (r+1)*LeaseTicks consecutive silent ticks.
	LeaseTicks int
	// StealMax caps the stolen jobs a follower runs concurrently
	// (default 1; negative disables stealing).
	StealMax int
	// StealTicks is how many leader ticks a stolen job may stay
	// unreported before it is re-queued (default 10*LeaseTicks). A
	// test seam: TestStolenJobRequeuedAfterStealerSilence sets 2.
	StealTicks int
	// Retry is the inter-node client policy (zero-value fields take
	// serve.RetryPolicy's defaults). A test seam: the chaos tests
	// (netFleet) set fast retries with the breaker off.
	Retry serve.RetryPolicy
	// HTTP overrides the transport for inter-node calls and follower
	// forwarding (tests inject httptest clients); nil means the
	// default client.
	HTTP *http.Client
	// Logger receives the node's log lines; nil is silent.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTicks == 0 {
		c.LeaseTicks = 3
	}
	if c.StealMax == 0 {
		c.StealMax = 1
	}
	if c.StealTicks == 0 {
		c.StealTicks = 10 * c.LeaseTicks
	}
	return c
}

// peerState is the leader's view of one follower.
type peerState struct {
	id     string
	url    string
	client *serve.Client
	// known is set once a response told us how much of the log the
	// peer holds; until then sends are pure heartbeats (no records),
	// so a fresh leader never re-streams a log the peer already has.
	known bool
	acked uint64
}

// Node is one fleet member: the replication/election state machine
// wrapped around a serve.Server. It implements serve.ClusterView.
type Node struct {
	cfg     Config
	srv     *serve.Server
	journal *durable.Journal
	metrics *obs.Registry
	logger  *obs.Logger
	// events is the bounded operational event log behind
	// /cluster/events: terms, promotions, depositions, steals.
	events *obs.EventLog

	// applyMu serializes every mutation of the local log and the role
	// transitions that fence it: applyReplicate holds it end to end (two
	// racing replication requests must not both observe the same length
	// and double-append), and promote holds it across its
	// decide-append-switch sequence (a replication landing mid-promotion
	// must either abort the promotion or wait behind it). Lock order:
	// applyMu before mu, never the reverse.
	applyMu sync.Mutex

	mu       sync.Mutex
	role     string
	term     uint64
	leader   string // node ID of the current leader ("" unknown)
	missed   int    // follower: consecutive ticks without a replication request
	peers    map[string]*peerState
	stolen   map[string]int  // leader: outstanding stolen job → silent ticks
	pushed   map[string]bool // leader: dataset IDs already pushed to their shard owner
	inflight int             // follower: stolen jobs executing locally
	// termStarts is the journal's term history: one entry per RecTerm
	// record, in log order. It is the fork-detection fence replication
	// requests carry (see replicate.go) and is kept in lockstep with the
	// journal: seeded by a scan at New, extended by promote and by
	// applied RecTerm records, trimmed by reconciliation truncation.
	termStarts []termStart

	// baseCtx bounds every background stolen-job run; Close cancels it
	// and waits for wg, so a drained node leaks no goroutines. Stolen
	// runs outlive the steal request that started them, so their bound
	// is the node's lifetime, not any caller's.
	baseCtx context.Context //lint:allow ctxfirst node-lifetime bound for background stolen-job runs; Close cancels it
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// eventCap is how many entries the /cluster/events ring retains; it
// overwrites the oldest.
const eventCap = 256

// New wires srv into the fleet. The server must have a durable store
// (cluster nodes are built with serve.NewFollower). New attaches the
// cluster view, the dataset fetch-on-miss hook, and the forwarding
// client, then bootstraps: a journal that already witnessed a term
// starts as a follower of that term's leader, and a brand-new fleet
// (term zero everywhere) elects the lowest node ID immediately instead
// of waiting out a lease.
func New(ctx context.Context, cfg Config, srv *serve.Server) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, errors.New("cluster: node ID is required")
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("cluster: node %q is not in the peer map", cfg.ID)
	}
	if srv.Store() == nil {
		return nil, errors.New("cluster: a cluster node needs a durable store")
	}
	n := &Node{
		cfg:     cfg,
		srv:     srv,
		journal: srv.Store().Journal(),
		metrics: srv.Metrics(),
		logger:  cfg.Logger.Scope("cluster"),
		events:  obs.NewEventLog(eventCap),
		role:    RoleFollower,
		peers:   make(map[string]*peerState, len(cfg.Peers)),
		stolen:  make(map[string]int),
		pushed:  make(map[string]bool),
	}
	n.baseCtx, n.cancel = context.WithCancel(context.Background())
	n.term, n.leader = srv.RecoveredTerm()
	// The serve layer's recovery already reduced the term history —
	// snapshot entries plus the tail's RecTerm records, with absolute
	// sequences — so the node seeds fork detection from that instead of
	// re-scanning a journal whose compacted prefix no longer exists.
	n.termStarts = srv.RecoveredTermStarts()
	for id, u := range cfg.Peers {
		if id == cfg.ID {
			continue
		}
		c := serve.NewRetryingClient(u, cfg.Retry)
		c.HTTP = cfg.HTTP
		n.peers[id] = &peerState{id: id, url: u, client: c}
	}
	srv.SetCluster(n)
	srv.SetDatasetFetcher(n.fetchDataset)
	srv.SetFleetObs(n.fleetObs)
	if cfg.HTTP != nil {
		srv.SetForwardClient(cfg.HTTP)
	}
	n.metrics.Gauge("cluster.leader_term").Set(float64(n.term))
	if n.term == 0 && n.nodeIDs()[0] == cfg.ID {
		if err := n.promote(ctx, 0, "", false); err != nil {
			n.cancel()
			return nil, fmt.Errorf("cluster: bootstrap election: %w", err)
		}
	}
	return n, nil
}

// termStart is one entry of a journal's term history: the RecTerm for
// Term, appended by Leader at log position Seq. Replication requests
// carry the leader's full history so followers can locate forks (see
// the package comment); entries compare by value, all three fields.
// It is the durable layer's TermStart — the same type, not a mirror —
// so a history reduced from a snapshot plugs straight in.
type termStart = durable.TermStart

// nodeIDs returns every fleet member's ID in sorted order — the
// deterministic roster that election ranks and shard ownership hash
// against.
func (n *Node) nodeIDs() []string {
	ids := make([]string, 0, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Role implements serve.ClusterView.
func (n *Node) Role() (string, uint64, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.term, n.leader
}

// LeaderURL implements serve.ClusterView: the base URL follower
// traffic forwards to, "" when this node leads or the leader is
// unknown.
func (n *Node) LeaderURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader || n.leader == "" || n.leader == n.cfg.ID {
		return ""
	}
	return n.cfg.Peers[n.leader]
}

// Tick drives all of the node's periodic work: a leader renews its
// lease by replicating (heartbeats included), pushes dataset shards,
// and re-queues overdue stolen jobs; a follower counts the silence,
// promotes itself past its share of the lease, and otherwise tries to
// steal queued work. Tick is not reentrant — one caller drives it,
// from a timer loop (cmd/remedyd) or by hand (tests). A deposed node
// ticks its rejoin probe: it looks for the fleet's current leader and
// re-enters as a follower the moment it finds one.
func (n *Node) Tick(ctx context.Context) {
	ctx = obs.WithLogger(obs.WithMetrics(ctx, n.metrics), n.logger)
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	switch role {
	case RoleLeader:
		n.tickLeader(ctx)
	case RoleFollower:
		n.tickFollower(ctx)
	case RoleDeposed:
		n.tickDeposed(ctx)
	}
}

func (n *Node) tickLeader(ctx context.Context) {
	if err := faults.FireCtx(ctx, faults.ClusterLease, n.cfg.ID); err != nil {
		// A stalled leader: local state is intact but nothing goes out,
		// so followers start counting missed ticks.
		n.logger.Warn("lease renewal suppressed", "err", err)
		return
	}
	n.expireStolen(ctx)
	n.pushDatasets(ctx)
	n.replicateAll(ctx)
	n.maybeCompact(ctx)
}

func (n *Node) tickFollower(ctx context.Context) {
	n.mu.Lock()
	n.missed++
	missed, term, leader := n.missed, n.term, n.leader
	inflight := n.inflight
	n.mu.Unlock()

	if missed > n.promotionThreshold(leader) {
		n.logger.Warn("leader silent past lease; promoting",
			"missed_ticks", missed, "leader", leader, "term", term)
		if err := n.promote(ctx, term, leader, true); err != nil {
			n.logger.Error("promotion failed", "err", err)
		}
		return
	}
	n.maybeCompact(ctx)
	if n.cfg.StealMax < 0 || inflight >= n.cfg.StealMax || leader == "" || leader == n.cfg.ID {
		return
	}
	n.trySteal(ctx, term, leader)
}

// maybeCompact runs the store's snapshot-compaction policy against
// this node's own journal (a no-op until remedyd installs one via
// -snapshot-every). Leaders and followers both compact: the rewrite
// keeps every surviving frame at (sequence - base), so positional
// replication is untouched, and a peer left behind the new horizon is
// healed by the leader's install-snapshot path, not by keeping old
// frames around forever.
func (n *Node) maybeCompact(ctx context.Context) {
	did, err := n.srv.Store().MaybeCompact(ctx)
	if err != nil {
		n.logger.Error("journal compaction failed", "err", err)
		return
	}
	if did {
		base := n.journal.Base()
		n.events.Append("compaction", fmt.Sprintf("%s compacted its journal to horizon %d", n.cfg.ID, base))
		n.logger.Info("journal compacted", "base", base)
	}
}

// promotionThreshold is the silent-tick budget before this follower
// moves: rank r among the node IDs with the current leader excluded
// waits (r+1) leases, so successors promote in deterministic order and
// the first one's heartbeats reset everyone behind it.
func (n *Node) promotionThreshold(leader string) int {
	rank := 0
	for _, id := range n.nodeIDs() {
		if id == leader {
			continue
		}
		if id == n.cfg.ID {
			break
		}
		rank++
	}
	return (rank + 1) * n.cfg.LeaseTicks
}

// promote makes this node the next term's leader. The RecTerm record
// is appended before anything else — it is the new term's fencing
// token, and every record promotion appends afterwards (interruption
// bumps, re-queues) is already under it. Then the replicated log is
// replayed into a live engine and the node goes ready.
//
// The whole sequence runs under applyMu, and the decision is
// re-checked there: the tick observed (expectTerm, leader) and a
// silent lease without the lock, so a replication request that landed
// in between — resetting the lease clock, raising the term, or
// appending replicated records where the RecTerm would go — aborts
// the promotion instead of racing it. confirmSilent is false only for
// the bootstrap election, which has no lease to re-check.
func (n *Node) promote(ctx context.Context, expectTerm uint64, leader string, confirmSilent bool) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	if n.role != RoleFollower || n.term != expectTerm ||
		(confirmSilent && n.missed <= n.promotionThreshold(leader)) {
		role, term := n.role, n.term
		n.mu.Unlock()
		n.logger.Info("promotion aborted; a replication arrived since the decision",
			"role", role, "term", term)
		return nil
	}
	newTerm := n.term + 1
	n.mu.Unlock()
	// A node that was deposed and rejoined kept its journal fenced all
	// the way through followership — AppendReplicated ignores the fence,
	// so replication filled it anyway. Promotion is where originating
	// writes become legitimate again.
	n.journal.Unfence()
	seq := n.journal.Sequence()
	// applyMu (held for this whole function) intentionally covers the
	// term-record fsync: the term record IS the fencing token, so no
	// replicated frame may land between deciding to promote and
	// journaling the decision. n.mu was released above; only the
	// promotion fence waits on the disk.
	//lint:allow heldcall applyMu must cover the term-record append: the fencing token has to hit the journal before any replication interleaves
	if err := n.journal.Append(ctx, durable.Record{
		Type: durable.RecTerm, Term: newTerm, Leader: n.cfg.ID,
	}); err != nil {
		return fmt.Errorf("cluster: journal term record: %w", err)
	}
	n.mu.Lock()
	n.term, n.leader, n.role, n.missed = newTerm, n.cfg.ID, RoleLeader, 0
	n.termStarts = append(n.termStarts, termStart{Term: newTerm, Leader: n.cfg.ID, Seq: seq})
	for _, p := range n.peers {
		p.known = false // re-discover every peer's position via heartbeat
	}
	n.mu.Unlock()
	n.metrics.Counter("cluster.promotions").Inc()
	n.metrics.Gauge("cluster.leader_term").Set(float64(newTerm))
	n.events.Append("promoted", fmt.Sprintf("%s promoted to leader at term %d", n.cfg.ID, newTerm))
	n.logger.Info("promoted to leader", "term", newTerm)
	// Promotion replays the journal and re-journals interrupted jobs,
	// all under the applyMu fence — replication must not interleave
	// with recovery, so holding the lock across these fsyncs is the
	// point, not an accident.
	//lint:allow heldcall serve.Promote recovers and re-journals under the applyMu fence by design; replication may not interleave with recovery
	if err := n.srv.Promote(ctx); err != nil {
		return fmt.Errorf("cluster: promote node %s: %w", n.cfg.ID, err)
	}
	return nil
}

// depose retires this node from the stream: a higher term exists, or
// this node's log diverged from its leader's. The journal is fenced
// first — before the role flips, before anything is logged — so a
// stale leader mid-depose can never ack another originating write;
// replicated appends still land, which is how the rejoin path heals
// the log. The node then reports not-ready as rejoining: tickDeposed
// probes for the fleet's current leader and re-enters live.
func (n *Node) depose(term uint64, leader, why string) {
	n.mu.Lock()
	if n.role == RoleDeposed {
		n.mu.Unlock()
		return
	}
	n.journal.Fence()
	n.role = RoleDeposed
	if term > n.term {
		n.term = term
	}
	if leader != "" {
		n.leader = leader
	}
	term = n.term
	n.mu.Unlock()
	n.metrics.Counter("cluster.stepdowns").Inc()
	n.events.Append("deposed", fmt.Sprintf("%s deposed at term %d: %s", n.cfg.ID, term, why))
	n.logger.Warn("deposed", "term", term, "why", why)
	n.srv.SetNotReady(fmt.Sprintf("deposed (%s); rejoining the fleet at term %d", why, term))
}

// tickDeposed is the deposed node's way back in: probe the fleet for
// its current leader (GET /cluster/status, deterministic node-ID
// order) and rejoin as that leader's follower. The probe is read-only
// and fenced by nothing — a deposed node can always ask — so a node
// cut off behind a partition keeps probing each tick until the link
// heals, then rejoins on the first tick that reaches a leader.
func (n *Node) tickDeposed(ctx context.Context) {
	n.mu.Lock()
	term := n.term
	n.mu.Unlock()
	for _, id := range sortedKeys(n.peers) {
		p := n.peers[id]
		var st Status
		if err := p.client.DoJSON(ctx, http.MethodGet, "/cluster/status", nil, &st); err != nil {
			n.logger.Debug("rejoin probe failed", "peer", id, "err", err)
			continue
		}
		if st.Role != RoleLeader || st.Term < term {
			continue
		}
		n.rejoin(ctx, st.Term, st.NodeID)
		return
	}
}

// rejoin re-enters the fleet as a follower of leader at term, without
// a restart. The engine demotes first — every local job is dropped,
// running work is cancelled, nothing is journaled (the fence holds
// until a later promotion) — then the role flips under applyMu so no
// replication interleaves with the transition. The next heartbeat
// from the leader reconciles the journal: a forked suffix truncates
// via the term history, and a node left behind the leader's
// compaction horizon is healed by install-snapshot.
func (n *Node) rejoin(ctx context.Context, term uint64, leader string) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.rejoinLocked(ctx, term, leader)
}

// rejoinLocked is rejoin's body for callers already holding applyMu
// (applyReplicate rejoins inline when a current-term leader contacts a
// deposed node directly).
func (n *Node) rejoinLocked(ctx context.Context, term uint64, leader string) {
	n.mu.Lock()
	if n.role != RoleDeposed {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	// Demote outside n.mu (it takes the engine's locks) but inside
	// applyMu: no replicated record may land between the engine
	// forgetting its jobs and the role flip below.
	n.srv.Demote(ctx)
	n.mu.Lock()
	if n.role != RoleDeposed {
		n.mu.Unlock()
		return
	}
	n.role = RoleFollower
	if term > n.term {
		n.term = term
	}
	n.leader = leader
	n.missed = 0
	term = n.term
	n.mu.Unlock()
	n.metrics.Counter("cluster.rejoins").Inc()
	n.metrics.Gauge("cluster.leader_term").Set(float64(term))
	n.events.Append("rejoined", fmt.Sprintf("%s rejoined as follower of %s at term %d", n.cfg.ID, leader, term))
	n.logger.Info("rejoined the fleet", "leader", leader, "term", term)
	n.srv.SetNotReady(fmt.Sprintf("follower of %s at term %d; writes forward to the leader", leader, term))
}

// FollowerLag implements serve.FleetLag: on the leader, each known
// follower's journal frames behind the local log — the early-warning
// number /readyz and /metrics/fleet surface. Nil on non-leaders and
// for peers whose position is still unknown.
func (n *Node) FollowerLag() map[string]uint64 {
	seq := n.journal.Sequence()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader {
		return nil
	}
	out := make(map[string]uint64, len(n.peers))
	for id, p := range n.peers {
		if p.known && p.acked <= seq {
			out[id] = seq - p.acked
		}
	}
	return out
}

// Close cancels the node's background stolen-job executors and waits
// for them. Call it after the tick loop and HTTP server have stopped;
// a closed node leaks no goroutines.
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
}
