// Package obs is the pipeline's zero-dependency observability layer:
// hierarchical tracing, a metrics registry, and a leveled structured
// logger, all carried through context.Context so that uninstrumented
// callers pay near-zero cost.
//
// The design follows one convention throughout: every handle obtained
// from a context may be nil, and every method on a nil handle is a
// no-op. Library code therefore instruments unconditionally —
//
//	ctx, sp := obs.StartSpan(ctx, "core.identify.optimized")
//	defer sp.End()
//	obs.MetricsFrom(ctx).Counter("identify.nodes_visited").Add(n)
//
// — and pays only a context lookup plus a nil check when no tracer,
// registry, or logger is installed. The no-op path performs no heap
// allocations (asserted by TestNoopTracerAllocs), so hot loops such as
// the lattice traversal can stay instrumented in production builds.
//
// Attribute setters are typed (SetInt, SetStr) rather than
// taking `any`, so disabled instrumentation does not box its arguments.
// Guard expensive formatting with Logger.On:
//
//	if lg := obs.LoggerFrom(ctx); lg.On(obs.LevelDebug) {
//		lg.Debug("level scanned", "level", lv, "elapsed", time.Since(t0))
//	}
package obs

import "context"

type tracerKey struct{}
type spanKey struct{}
type metricsKey struct{}
type loggerKey struct{}

// WithTracer returns a context carrying tr. Spans started from the
// returned context (and its descendants) record into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// SpanFrom returns the innermost span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// WithMetrics returns a context carrying the registry m.
func WithMetrics(ctx context.Context, m *Registry) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, metricsKey{}, m)
}

// MetricsFrom returns the metrics registry carried by ctx, or nil. A
// nil registry is safe to use: Counter/Gauge/Histogram return nil
// instruments whose methods are no-ops.
func MetricsFrom(ctx context.Context) *Registry {
	m, _ := ctx.Value(metricsKey{}).(*Registry)
	return m
}

// WithLogger returns a context carrying lg.
func WithLogger(ctx context.Context, lg *Logger) context.Context {
	if lg == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey{}, lg)
}

// LoggerFrom returns the logger carried by ctx, or nil. A nil logger
// discards everything and reports every level disabled.
func LoggerFrom(ctx context.Context) *Logger {
	lg, _ := ctx.Value(loggerKey{}).(*Logger)
	return lg
}
