// Package obspair is a remedylint fixture for the span-balancing
// contract.
package obspair

import (
	"context"

	"repro/internal/obs"
)

func deferred(ctx context.Context) context.Context {
	ctx, sp := obs.StartSpan(ctx, "deferred")
	defer sp.End()
	return ctx
}

func discarded(ctx context.Context) {
	_, _ = obs.StartSpan(ctx, "discarded") // want "discarded"
}

func neverEnded(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "leaked") // want "never ended"
	sp.SetInt("n", 1)
}

func earlyReturn(ctx context.Context, fail bool) error {
	_, sp := obs.StartSpan(ctx, "early")
	if fail {
		return context.Canceled // want "without ending span"
	}
	sp.End()
	return nil
}

// The loop-scoped closure-ender pattern: each iteration's span is
// ended by calling a local closure.
func loopClosure(ctx context.Context, n int) {
	var sp *obs.Span
	endIter := func() { sp.End() }
	for i := 0; i < n; i++ {
		_, sp = obs.StartSpan(ctx, "iter")
		endIter()
	}
}

func finish(sp *obs.Span, n int64) {
	sp.SetInt("n", n)
	sp.End()
}

func leaky(sp *obs.Span) {
	sp.SetInt("n", 0)
}

// Handing the span to a same-package helper that ends it balances the
// span; handing it to one that does not is a leak.
func handoffGood(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "handoff")
	defer finish(sp, 1)
}

func handoffBad(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "handoff") // want "never ended"
	leaky(sp)
}

// Spans started inside a closure are balanced inside that closure.
func closureScoped(ctx context.Context) func() {
	return func() {
		_, sp := obs.StartSpan(ctx, "inner")
		defer sp.End()
	}
}

func waivedHandoff(ctx context.Context) {
	//lint:allow obspair fixture: span handed to a goroutine for ending
	_, sp := obs.StartSpan(ctx, "async")
	go func() { sp.End() }()
}
