package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

func TestWorkerPanicSurfacesAsError(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	faults.Set(faults.IdentifyWorker, func(arg any) error {
		panic("injected worker panic")
	})
	res, err := IdentifyOptimizedCtx(context.Background(), synth.CompasN(2000, 5),
		Config{TauC: 0.1, T: 1, Workers: 4})
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wp.Value != "injected worker panic" {
		t.Fatalf("panic value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Fatal("worker stack not captured")
	}
	if !strings.Contains(wp.Error(), "node") {
		t.Fatalf("error text %q does not name the node", wp.Error())
	}
	if res == nil {
		t.Fatal("partial result must be non-nil")
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

func TestPreloadWorkerPanicRecovered(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	faults.Set(faults.PreloadWorker, func(arg any) error {
		panic("preload boom")
	})
	d := synth.CompasN(1000, 9)
	for _, bk := range backends {
		h := newHierarchyOn(t, d, bk.b)
		var wp *WorkerPanicError
		if err := h.Preload(4); !errors.As(err, &wp) {
			t.Fatalf("%s: Preload err = %v, want *WorkerPanicError", bk.name, err)
		}
		// The hierarchy stays usable: counts missing after the failed
		// preload are computed on first read.
		if got, want := h.Node(0b001), newHierarchyOn(t, d, bk.b).Node(0b001); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: node after failed preload %v, want %v", bk.name, got, want)
		}
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
