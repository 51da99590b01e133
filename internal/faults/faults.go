// Package faults is a deterministic fault-injection harness for the
// pipeline's robustness tests. Production code fires named injection
// points at the boundaries where real deployments fail — worker
// goroutines, CSV decoding, the remedy loop — and tests install hooks
// that force the failure they want to observe: a panic inside a
// parallel identify worker, a read error mid-CSV, a context
// cancellation between remedy nodes.
//
// The harness is test-only in effect but lives in the library so the
// injection points compile into the real code paths: what the tests
// exercise is exactly what production runs. When no hook is installed
// (the production state) a fired point costs a single atomic load.
package faults

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Point names one injection site.
type Point string

const (
	// IdentifyWorker fires at the start of every node scan of the
	// optimized identify, at every worker count. The argument is the
	// node's uint32 mask. A panicking hook simulates a worker crash;
	// the identify layer must convert it into an error.
	IdentifyWorker Point = "core.identify.worker"
	// PreloadWorker fires before a hierarchy fill of the nodes one
	// identify level reads, or of the whole lattice for a preload. The
	// argument is the union of the filled nodes' uint32 masks.
	PreloadWorker Point = "core.preload.worker"
	// CSVRecord fires once per decoded CSV record. The argument is the
	// 1-based line number (int). A non-nil error aborts the load as a
	// read error would.
	CSVRecord Point = "dataset.csv.record"
	// RemedyNode fires before each remedy node is processed. The
	// argument is the node's uint32 mask. Hooks typically cancel a
	// context here to test mid-remedy cancellation, or return an error
	// to simulate a failing dependency.
	RemedyNode Point = "remedy.node"
	// TrainEpoch fires once per training epoch/tree of the context-aware
	// learners. The argument is the epoch or tree index (int).
	TrainEpoch Point = "ml.train.epoch"
	// ServeJob fires when a remedyd worker picks a job up, before any
	// pipeline work. The argument is the job ID (string). Hooks block
	// here to hold worker slots (queue-backpressure tests), return an
	// error to fail the job at the server layer, or panic to simulate a
	// worker crash the engine must absorb.
	ServeJob Point = "serve.job.start"
	// JournalAppend fires before every durable journal append, with the
	// record about to be written as the argument. An error hook
	// simulates a write failure (full disk, dead volume); a hook that
	// fails every append from some record onward freezes the journal at
	// a prefix — exactly the on-disk image an abrupt process death
	// leaves behind, which is how the crash-restart chaos tests build
	// their crash images. Hooks may panic only where the host code path
	// documents recovery (checkpoint appends run under the job
	// engine's panic absorber; lifecycle appends do not).
	JournalAppend Point = "durable.journal.append"
	// RecoverRecord fires once per decoded journal record during
	// replay, with the record as the argument. An error hook aborts the
	// recovery as an unreadable journal would.
	RecoverRecord Point = "durable.recover.record"
	// ClientDo fires before every HTTP attempt of serve.Client
	// (including each retry), with "METHOD path" as the argument. An
	// error hook simulates a transport failure, which the client's
	// retry policy must absorb within its attempt budget.
	ClientDo Point = "serve.client.do"
	// ClusterReplicate fires before a cluster leader sends one
	// replication batch (or heartbeat) to one follower. The argument is
	// "leaderID→peerID" (string). An error hook drops the send — the
	// chaos tests' network partition: followers stop hearing from the
	// leader and begin counting missed lease ticks.
	ClusterReplicate Point = "cluster.replicate.send"
	// ClusterLease fires once per leader tick before the lease renewal
	// (the heartbeat fan-out) begins. The argument is the leader's node
	// ID (string). An error hook makes the leader skip the whole tick's
	// sends, simulating a stalled leader that still holds local state.
	ClusterLease Point = "cluster.lease.renew"
	// ClusterSteal fires before a follower attempts to steal queued
	// work from its leader. The argument is the stealing node's ID
	// (string). An error hook suppresses the attempt.
	ClusterSteal Point = "cluster.steal"
)

// Hook is an injected behavior. Returning a non-nil error makes the
// host code path fail as if a real dependency had failed; a hook may
// also panic (only meaningful at points documented to recover) or
// block/sleep to simulate slowness.
type Hook func(arg any) error

var (
	active atomic.Int32 // number of installed hooks; 0 = fast path
	mu     sync.RWMutex
	hooks  = map[Point]Hook{}
)

// Active reports whether any hook is installed. Call sites use it to
// skip the map lookup on the hot path.
func Active() bool { return active.Load() > 0 }

// Set installs the hook for p, replacing any previous hook. Tests must
// pair it with Clear (or Reset) — typically via t.Cleanup.
func Set(p Point, h Hook) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := hooks[p]; !dup {
		active.Add(1)
	}
	hooks[p] = h
}

// Clear removes the hook for p, if any.
func Clear(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[p]; ok {
		delete(hooks, p)
		active.Add(-1)
	}
}

// Reset removes every installed hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = map[Point]Hook{}
	active.Store(0)
}

// Fire invokes the hook installed at p with arg and returns its error.
// With no hook installed it returns nil. Panics propagate to the
// caller by design: that is how worker-crash injection works.
func Fire(p Point, arg any) error {
	if !Active() {
		return nil
	}
	mu.RLock()
	h := hooks[p]
	mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(arg)
}

// FireCtx is Fire for call sites that carry a context: when a hook is
// installed and a trace span is active, the injection is recorded as a
// "fault.injected" event on the span before the hook runs — before,
// because the hook may panic, and a crash injection must still leave
// its trace. Without a hook (the production state) it costs the same
// single atomic load as Fire.
func FireCtx(ctx context.Context, p Point, arg any) error {
	if !Active() {
		return nil
	}
	mu.RLock()
	h := hooks[p]
	mu.RUnlock()
	if h == nil {
		return nil
	}
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.Event("fault.injected", fmt.Sprintf("%s arg=%v", p, arg))
	}
	return h(arg)
}
