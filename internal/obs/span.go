package obs

import (
	"context"
	"time"

	"github.com/wikistale/wikistale/internal/obs/trace"
)

// StageHistogram is the histogram every pipeline stage span records into,
// labeled by stage name. The acceptance surface of the repo's perf work:
// `wikistale_train_stage_seconds{stage="train/filter"}` etc.
const StageHistogram = "wikistale_train_stage_seconds"

// DurationBuckets is the default bucketing for second-valued histograms:
// half a millisecond to a minute, roughly logarithmic.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// RequestBuckets is the bucketing for request-latency histograms. The
// serving hot path answers in tens of microseconds, so the low end runs
// 10 µs – 500 µs at roughly 2–2.5× steps: DurationBuckets' 500 µs floor
// put a sub-millisecond p99 entirely inside the first bucket, which made
// the latency histogram useless exactly where serving performance lives.
// The high end still reaches 60 s so a stalled request is visible too.
var RequestBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

func init() {
	Default.SetHelp(StageHistogram, "Wall-clock seconds per named pipeline stage (train/*, eval/*, grid/*).")
}

// Span measures one named pipeline stage. Obtain with StartSpan (a plain
// stage timer) or StartSpanCtx (also a child of the context's trace);
// finish with End. A Span must not be ended twice.
type Span struct {
	name  string
	reg   *Registry
	start time.Time
	// ts is the trace child span of the ctx-aware path; nil for plain
	// timers, and nil-safe throughout (trace.Span methods tolerate nil).
	ts *trace.Span
}

// StartSpan starts a stage timer on the Default registry.
//
//	span := obs.StartSpan("train/filter")
//	... work ...
//	elapsed := span.End()
func StartSpan(name string) *Span { return Default.StartSpan(name) }

// StartSpan starts a stage timer on this registry.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{name: name, reg: r, start: time.Now()}
}

// StartSpanCtx starts a stage timer that is additionally a child span of
// the trace carried by ctx, if any — this is how the training and filter
// stage timers become children of a real request or retrain trace instead
// of free-floating timers. Without a trace in ctx it behaves exactly like
// StartSpan (and costs the same), so batch paths pay nothing.
func StartSpanCtx(ctx context.Context, name string) (context.Context, *Span) {
	return Default.StartSpanCtx(ctx, name)
}

// StartSpanCtx starts a ctx-aware stage timer on this registry.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, reg: r, start: time.Now()}
	ctx, s.ts = trace.StartChild(ctx, name)
	return ctx, s
}

// Name returns the stage name the span was started with.
func (s *Span) Name() string { return s.name }

// End records the elapsed time into StageHistogram and returns it. When
// the span rides a trace, the trace child span ends too and the histogram
// observation carries the trace ID as an exemplar.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.ts.End()
	s.reg.observeStage(s.name, d, s.ts.TraceID())
	return d
}

func (r *Registry) observeStage(name string, d time.Duration, traceID string) {
	h := r.Histogram(StageHistogram, DurationBuckets, Labels{"stage": name})
	if traceID == "" {
		h.Observe(d.Seconds())
		return
	}
	h.ObserveExemplar(d.Seconds(), traceID)
}
