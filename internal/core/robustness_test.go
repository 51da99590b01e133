package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/synth"
)

// assertNoGoroutineLeak waits for the goroutine count to drop back to
// (roughly) the baseline captured before the test body ran.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerPanicSurfacesAsError runs the one node-scan wrapper at
// both kinds of worker count, panicking on the level-1 nodes, which
// Workers=4 scans on three goroutines. At Workers=1 the scan runs
// inline, so the panic's stack still holds the traversal's own frame.
func TestWorkerPanicSurfacesAsError(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	faults.Set(faults.IdentifyWorker, func(arg any) error {
		if bits.OnesCount32(arg.(uint32)) == 1 {
			panic("injected worker panic")
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		res, err := IdentifyOptimizedCtx(context.Background(), synth.CompasN(2000, 5),
			Config{TauC: 0.1, T: 1, Workers: workers})
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("workers=%d: err = %v, want *WorkerPanicError", workers, err)
		}
		if wp.Value != "injected worker panic" {
			t.Fatalf("workers=%d: panic value = %v", workers, wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Fatalf("workers=%d: worker stack not captured", workers)
		}
		if !strings.Contains(wp.Error(), "node") {
			t.Fatalf("workers=%d: error text %q does not name the node", workers, wp.Error())
		}
		if res == nil {
			t.Fatalf("workers=%d: partial result must be non-nil", workers)
		}
		inline := strings.Contains(string(wp.Stack), "IdentifyOptimizedCtx")
		if inline != (workers == 1) {
			t.Fatalf("workers=%d: scan ran inline = %v:\n%s", workers, inline, wp.Stack)
		}
	}
	assertNoGoroutineLeak(t, base)
}

func TestWorkerFaultErrorCancelsSiblings(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	boom := errors.New("disk on fire")
	var target uint32
	h, err := NewHierarchy(synth.CompasN(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	masks := h.MasksForScope(Lattice)
	target = masks[len(masks)/2]
	faults.Set(faults.IdentifyWorker, func(arg any) error {
		if arg.(uint32) == target {
			return boom
		}
		return nil
	})
	res, err := h.IdentifyOptimizedCtx(context.Background(), Config{TauC: 0.1, T: 1, Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped injected fault", err)
	}
	if res == nil {
		t.Fatal("partial result must be non-nil")
	}
	assertNoGoroutineLeak(t, base)
}

// TestPreloadWorkerPanicRecovered: a panic while a level's counts are
// filled surfaces from an identify at Workers=2 as a *WorkerPanicError,
// and the dropped lattice is recounted on the next read.
func TestPreloadWorkerPanicRecovered(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	d := synth.CompasN(1000, 9)
	cfg := Config{TauC: 0.1, T: 1, Workers: 2}
	for _, bk := range backends {
		want := identifyOn(t, d, bk.b, cfg)
		faults.Set(faults.PreloadWorker, func(arg any) error {
			panic("preload boom")
		})
		h := newHierarchyOn(t, d, bk.b)
		var wp *WorkerPanicError
		if _, err := h.IdentifyOptimizedCtx(context.Background(), cfg); !errors.As(err, &wp) {
			t.Fatalf("%s: identify err = %v, want *WorkerPanicError", bk.name, err)
		}
		if h.lat != nil {
			t.Fatalf("%s: half-filled lattice kept after the panic", bk.name)
		}
		faults.Clear(faults.PreloadWorker)
		got, err := h.IdentifyOptimizedCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: identify after failed fill: %v", bk.name, err)
		}
		identicalResults(t, got, want)
	}
	assertNoGoroutineLeak(t, base)
}

func TestIdentifyPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := synth.CompasN(2000, 11)
	for _, workers := range []int{0, 4} {
		res, err := IdentifyOptimizedCtx(ctx, d, Config{TauC: 0.1, T: 1, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: partial result must be non-nil", workers)
		}
	}
	if _, err := IdentifyNaiveCtx(ctx, d, Config{TauC: 0.1, T: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("naive err = %v, want context.Canceled", err)
	}
}

// cancelAfterPolls is a context that reports cancellation from its
// (polls+1)-th Err call on.
type cancelAfterPolls struct {
	context.Context
	polls, calls int
}

func (c *cancelAfterPolls) Err() error {
	c.calls++
	if c.calls > c.polls {
		return context.Canceled
	}
	return nil
}

// TestSkippedNodeCancelled cancels the scan of a node whose sub-blocks
// the size floor all skips: the leaf of three slots of cardinality 30
// at MinSize 5, where each level-1 prefix holds 6 rows and each
// level-2 prefix at most 1, so the walk reads 931 regions and skips
// 900 sub-blocks. Cancelled before the walk, or at its second ctx poll
// mid-node, the scan must return context.Canceled without panicking,
// in both layouts.
func TestSkippedNodeCancelled(t *testing.T) {
	s := &dataset.Schema{Target: "y"}
	vals := make([]string, 30)
	for v := range vals {
		vals[v] = fmt.Sprint(v)
	}
	for i := 0; i < 3; i++ {
		s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprintf("a%d", i), Values: vals, Protected: true})
	}
	d := dataset.New(s)
	for r := 0; r < 180; r++ {
		d.Append([]int32{int32(r % 30), int32(r / 30), 0}, int8(r%2))
	}
	cfg := Config{TauC: 0.1, T: 1, MinSize: 5}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bk := range backends {
		h := newHierarchyOn(t, d, bk.b)
		if _, err := h.BiasedRegionsInNodeCtx(pre, 0b111, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled: err = %v, want context.Canceled", bk.name, err)
		}
		mid := &cancelAfterPolls{Context: context.Background(), polls: 1}
		if _, err := h.BiasedRegionsInNodeCtx(mid, 0b111, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled mid-node: err = %v, want context.Canceled", bk.name, err)
		}
		if mid.calls != 2 {
			t.Fatalf("%s: ctx polled %d times, want 2 (the walk's first and second poll)", bk.name, mid.calls)
		}
		if _, err := h.BiasedRegionsInNodeCtx(context.Background(), 0b111, cfg); err != nil {
			t.Fatalf("%s: uncancelled: %v", bk.name, err)
		}
	}
}

// TestIdentifyCancelBoundedTime slows every parallel worker down
// through the fault hook, cancels mid-run, and asserts the call
// returns well inside the 100ms budget with context.Canceled.
func TestIdentifyCancelBoundedTime(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	faults.Set(faults.IdentifyWorker, func(arg any) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := IdentifyOptimizedCtx(ctx, synth.CompasN(2000, 13),
			Config{TauC: 0.1, T: 1, Workers: 2})
		done <- outcome{err}
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case o := <-done:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("returned %v after cancel, want < 100ms", elapsed)
		}
		if o.err != nil && !errors.Is(o.err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", o.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("identify did not return after cancellation")
	}
	assertNoGoroutineLeak(t, base)
}
