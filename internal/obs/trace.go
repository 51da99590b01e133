package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records hierarchical spans. It is safe for concurrent use:
// parallel workers start sibling spans under one parent and the tracer
// serializes the bookkeeping. A snapshot can be taken at any moment —
// including after a cancelled pipeline — and spans still open at that
// point are reported with Unfinished set, so a partial trace is always
// a valid trace.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []*Span
	nextID uint64

	// Fleet identity (optional): node names the process recording the
	// spans and traceID is the cross-node correlation key. Both are
	// empty for a plain single-process tracer; SetIdentity installs
	// them, snapshots carry them, and Graft stitches remote subtrees
	// from other nodes into this tracer's tree.
	node    string
	traceID string
	// grafted holds span snapshots imported from other nodes' tracers,
	// re-IDed into this tracer's ID space (see Graft).
	grafted []SpanSnapshot
}

// NewTracer returns an empty tracer. Its epoch (the zero offset of
// every span's start time) is the moment of creation.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetIdentity names the tracer's node and cross-node trace ID. Both
// appear on every snapshot: the node on each span, the trace ID on the
// trace document. Callers derive the trace ID deterministically (node
// ID + a local sequence number) so the same workload schedule yields
// the same IDs — there is no entropy here. No-op on nil.
func (t *Tracer) SetIdentity(node, traceID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.node, t.traceID = node, traceID
	t.mu.Unlock()
}

// Identity returns the node name and trace ID installed by
// SetIdentity ("", "" on a plain or nil tracer).
func (t *Tracer) Identity() (node, traceID string) {
	if t == nil {
		return "", ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node, t.traceID
}

// Span is one timed operation in the trace tree. Starting a span
// through StartSpan links it to the innermost span of the context, and
// the returned context carries the new span so descendants nest under
// it. All methods are no-ops on a nil receiver.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration // offset from tracer epoch
	end    time.Duration // 0 until End
	ended  bool
	attrs  []Attr
	events []Event
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Event is a timestamped point annotation inside a span (for example
// an injected fault firing).
type Event struct {
	Name string        `json:"name"`
	At   time.Duration `json:"at_us"` // offset from tracer epoch
	Attr string        `json:"attr,omitempty"`
}

// StartSpan starts a span named name under the innermost span of ctx
// and returns a derived context carrying it. Without a tracer in ctx it
// returns ctx unchanged and a nil span, allocating nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	var parent uint64
	if ps := SpanFrom(ctx); ps != nil {
		parent = ps.id
	}
	sp := tr.start(name, parent)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (t *Tracer) start(name string, parent uint64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp := &Span{
		tr:     t,
		id:     t.nextID,
		parent: parent,
		name:   name,
		start:  time.Since(t.epoch),
	}
	t.spans = append(t.spans, sp)
	return sp
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = time.Since(s.tr.epoch)
	}
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Value: v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Value: v})
}

func (s *Span) set(a Attr) {
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// Event records a point annotation at the current time. attr is a
// free-form detail string (empty for none).
func (s *Span) Event(name, attr string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.events = append(s.events, Event{Name: name, At: time.Since(s.tr.epoch), Attr: attr})
	s.tr.mu.Unlock()
}

// SpanSnapshot is the exported form of one recorded span. Times are
// microsecond offsets from the tracer epoch; DurationUS is 0 for
// unfinished spans.
type SpanSnapshot struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Node names the fleet member that recorded the span (empty on a
	// tracer without an identity). A stitched trace mixes nodes: local
	// spans carry this tracer's node, grafted ones keep their origin's.
	Node       string `json:"node,omitempty"`
	StartUS    int64  `json:"start_us"`
	DurationUS int64  `json:"duration_us"`
	Unfinished bool   `json:"unfinished,omitempty"`
	// Remote marks a span grafted from another node's tracer; its
	// StartUS is an offset from that node's epoch, not this one's, so
	// remote timings are internally consistent but not directly
	// comparable to local offsets.
	Remote bool    `json:"remote,omitempty"`
	Attrs  []Attr  `json:"attrs,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Snapshot returns every span recorded so far in start order — local
// spans first, then grafted remote subtrees in graft order. Spans
// still open are included with Unfinished set, so a snapshot taken
// after a cancellation is complete for the work that did run.
func (t *Tracer) Snapshot() []SpanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanSnapshot, len(t.spans), len(t.spans)+len(t.grafted))
	for i, sp := range t.spans {
		ss := SpanSnapshot{
			ID:      sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			Node:    t.node,
			StartUS: sp.start.Microseconds(),
			Attrs:   append([]Attr(nil), sp.attrs...),
			Events:  append([]Event(nil), sp.events...),
		}
		if sp.ended {
			ss.DurationUS = (sp.end - sp.start).Microseconds()
		} else {
			ss.Unfinished = true
		}
		out[i] = ss
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return append(out, append([]SpanSnapshot(nil), t.grafted...)...)
}

// Graft stitches a remote node's span subtree into this tracer's tree:
// the spans are re-IDed into this tracer's ID space (preserving their
// internal parent structure), roots of the remote tree are re-parented
// under parentID (0 grafts at the trace root), spans without a node
// are attributed to node, and every grafted span is marked Remote.
// This is how a stolen job's follower-side spans land back on the
// leader's per-job tracer, yielding one queryable timeline. No-op on a
// nil tracer.
func (t *Tracer) Graft(parentID uint64, node string, spans []SpanSnapshot) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idmap := make(map[uint64]uint64, len(spans))
	for _, ss := range spans {
		t.nextID++
		idmap[ss.ID] = t.nextID
	}
	for _, ss := range spans {
		ss.ID = idmap[ss.ID]
		if mapped, ok := idmap[ss.Parent]; ok {
			ss.Parent = mapped
		} else {
			ss.Parent = parentID
		}
		if ss.Node == "" {
			ss.Node = node
		}
		ss.Remote = true
		ss.Attrs = append([]Attr(nil), ss.Attrs...)
		ss.Events = append([]Event(nil), ss.Events...)
		t.grafted = append(t.grafted, ss)
	}
}

// TraceDoc is the exported form of a whole trace: its cross-node
// identity plus every span. It is the body of GET /jobs/{id}/trace and
// the -trace-out dump.
type TraceDoc struct {
	TraceID string         `json:"trace_id,omitempty"`
	Node    string         `json:"node,omitempty"`
	Spans   []SpanSnapshot `json:"spans"`
}

// Doc snapshots the whole trace with its identity.
func (t *Tracer) Doc() TraceDoc {
	if t == nil {
		return TraceDoc{}
	}
	node, traceID := t.Identity()
	return TraceDoc{TraceID: traceID, Node: node, Spans: t.Snapshot()}
}

// WriteJSON dumps the trace as an indented JSON document:
// {"trace_id": ..., "spans": [...]}. Valid at any moment, including
// mid-pipeline.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Doc())
}
