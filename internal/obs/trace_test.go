package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestSpanParentChildOrdering builds a three-deep tree and checks the
// snapshot preserves the parent links and start ordering.
func TestSpanParentChildOrdering(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	_, sibling := StartSpan(ctx, "sibling")
	grand.End()
	child.End()
	sibling.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Fatalf("root parent = %d", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatal("child must link to root")
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Fatal("grandchild must link to child")
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Fatal("sibling must link to root, not child")
	}
	// Snapshot order is start order (IDs ascend with start).
	for i := 1; i < len(spans); i++ {
		if spans[i].ID <= spans[i-1].ID {
			t.Fatalf("snapshot not in start order: %+v", spans)
		}
		if spans[i].StartUS < spans[i-1].StartUS {
			t.Fatalf("start times not monotone: %+v", spans)
		}
	}
	for _, s := range spans {
		if s.Unfinished {
			t.Fatalf("span %s unexpectedly unfinished", s.Name)
		}
	}
}

// TestNoopTracerAllocs asserts the uninstrumented path allocates
// nothing: without a tracer in the context, StartSpan, attribute
// setters, End, and the registry/logger lookups must be free.
func TestNoopTracerAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, sp := StartSpan(ctx, "noop")
		sp.SetInt("k", 42)
		sp.SetStr("s", "v")
		sp.Event("e", "")
		MetricsFrom(sctx).Counter("c").Add(1)
		if LoggerFrom(sctx).On(LevelDebug) {
			t.Error("nil logger reported enabled")
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation allocated %.1f times per run, want 0", allocs)
	}
}

// TestPartialTraceSnapshot takes a snapshot while spans are still open
// — the cancelled-pipeline case — and checks it is valid JSON with the
// open span marked unfinished.
func TestPartialTraceSnapshot(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	child.End()
	_ = root // root deliberately left open

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []SpanSnapshot }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("partial trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("got %d spans", len(doc.Spans))
	}
	for _, s := range doc.Spans {
		switch s.Name {
		case "root":
			if !s.Unfinished {
				t.Fatal("open root span must be marked unfinished")
			}
		case "child":
			if s.Unfinished {
				t.Fatal("ended child span must not be unfinished")
			}
		}
	}
}

// TestConcurrentSpans starts sibling spans from parallel goroutines —
// the identify worker-shard pattern — and checks nothing is lost.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "parallel")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, sp := StartSpan(ctx, "shard")
			sp.SetInt("worker", int64(w))
			sp.Event("tick", "")
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Snapshot()
	if len(spans) != workers+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers+1)
	}
	for _, s := range spans {
		if s.Name == "shard" && s.Parent != spans[0].ID {
			t.Fatalf("shard parent = %d, want %d", s.Parent, spans[0].ID)
		}
	}
}

func TestDoubleEndKeepsFirst(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "x")
	sp.End()
	first := tr.Snapshot()[0].DurationUS
	sp.End()
	if got := tr.Snapshot()[0].DurationUS; got != first {
		t.Fatalf("second End changed duration: %d -> %d", first, got)
	}
}
