// Package trace is the repository's dependency-free request tracing layer:
// context-propagated spans with trace/span/parent IDs, per-span attributes
// and nanosecond timings, collected per trace and published into a bounded
// ring buffer of recent traces (served at /debug/traces by staleserve).
//
// A trace is born when Start (or StartIn) is called on a context that does
// not already carry a span — the HTTP middleware and the ingest retrain
// loop are the two root sites. Child (and stage-timer, see obs.StartSpanCtx)
// calls attach to whatever span the context carries, so one request or one
// retrain produces one span tree. Ending the root span freezes the trace
// and records it; spans ending after that are dropped and counted.
//
// The package deliberately has no exporter, sampler, or wire protocol: it
// answers the operator question "what did this request/retrain actually do,
// and where did the time go" locally, the same way internal/obs answers the
// aggregate version of that question. *Span methods are nil-safe, so call
// sites can trace unconditionally: StartChild on a context without a trace
// returns a nil span whose SetAttr/End are no-ops.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wikistale/wikistale/internal/obs/ring"
)

// DefaultCapacity is the ring size of the Default recorder: enough recent
// traces to debug a live incident, small enough to never matter for memory.
const DefaultCapacity = 64

// maxSpansPerTrace bounds one trace's span list; a runaway loop creating
// spans must not pin unbounded memory. Excess spans are counted as dropped.
const maxSpansPerTrace = 512

// Default is the process-wide recorder; the HTTP layer serves it at
// /debug/traces and the ingest retrain loop records into it.
var Default = New(DefaultCapacity)

// Attr is one key/value annotation on a span. Values must be
// JSON-marshalable (strings, numbers, bools).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is the frozen form of one ended span.
type SpanData struct {
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationNS is the span's wall-clock duration in nanoseconds.
	DurationNS int64  `json:"duration_ns"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Trace is one complete span tree, frozen when its root span ended. Spans
// appear in end order; the root is last.
type Trace struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	// DurationNS is the root span's duration in nanoseconds.
	DurationNS int64      `json:"duration_ns"`
	Spans      []SpanData `json:"spans"`
	// DroppedSpans counts spans lost to the per-trace bound or ended after
	// the root froze the trace.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// traceBuf accumulates a live trace's ended spans until the root ends.
type traceBuf struct {
	rec *Recorder

	mu      sync.Mutex
	spans   []SpanData
	dropped int
	done    bool
}

// Span is one live span. Obtain with Start/StartIn/StartChild; finish with
// End. SetAttr and End must be called from the goroutine that owns the
// span (the one it was started on); other goroutines get their own child
// spans. All methods are nil-safe.
type Span struct {
	buf     *traceBuf
	traceID uint64
	spanID  uint64
	parent  uint64 // 0 for the root
	name    string
	start   time.Time
	attrs   []Attr
	ended   atomic.Bool
}

// idCounter seeds span/trace IDs; mixed through splitmix64 so IDs look
// random without needing an entropy source (uniqueness within the process
// is all tracing requires).
var idCounter atomic.Uint64

func newID() uint64 {
	for {
		x := idCounter.Add(1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

func formatID(id uint64) string { return fmt.Sprintf("%016x", id) }

type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start begins a span recording into the Default recorder: a child of the
// context's span when one is present, otherwise the root of a new trace.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return StartIn(Default, ctx, name)
}

// StartIn is Start with an explicit recorder for new roots (tests use
// private recorders; child spans always stay in their trace's recorder).
func StartIn(rec *Recorder, ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now(), spanID: newID()}
	if parent := FromContext(ctx); parent != nil {
		s.buf = parent.buf
		s.traceID = parent.traceID
		s.parent = parent.spanID
	} else {
		s.buf = &traceBuf{rec: rec}
		s.traceID = newID()
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartChild begins a child span only when ctx already carries a trace;
// otherwise it returns ctx unchanged and a nil (no-op) span. This is the
// call sites' way to participate in tracing without ever creating
// free-floating root traces.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	if FromContext(ctx) == nil {
		return ctx, nil
	}
	return Start(ctx, name)
}

// TraceID returns the 16-hex-digit trace ID, or "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return formatID(s.traceID)
}

// SpanID returns the 16-hex-digit span ID, or "" on a nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return formatID(s.spanID)
}

// Name returns the span name, or "" on a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. No-op on a nil or ended span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended.Load() {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span, appending it to its trace; ending the root span
// freezes the trace and records it. It returns the span's duration and is
// idempotent (and a no-op on nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.ended.Swap(true) {
		return d
	}
	data := SpanData{
		SpanID:     formatID(s.spanID),
		Name:       s.name,
		Start:      s.start,
		DurationNS: d.Nanoseconds(),
		Attrs:      s.attrs,
	}
	if s.parent != 0 {
		data.ParentID = formatID(s.parent)
	}
	b := s.buf
	b.mu.Lock()
	switch {
	case b.done:
		// The root already froze and published this trace; count the
		// straggler on the published copy so /debug/traces shows it.
		b.mu.Unlock()
		if b.rec != nil {
			b.rec.addDropped(s.traceID)
		}
		return d
	case s.parent != 0 && len(b.spans) >= maxSpansPerTrace:
		b.dropped++
		b.mu.Unlock()
		return d
	default:
		b.spans = append(b.spans, data)
	}
	if s.parent != 0 {
		b.mu.Unlock()
		return d
	}
	// Root ended: freeze and publish.
	b.done = true
	t := Trace{
		TraceID:      formatID(s.traceID),
		Root:         s.name,
		Start:        s.start,
		DurationNS:   d.Nanoseconds(),
		Spans:        b.spans,
		DroppedSpans: b.dropped,
	}
	rec := b.rec
	b.mu.Unlock()
	if rec != nil {
		rec.Push(t)
	}
	return d
}

// Recorder is a bounded ring of completed traces: Newest, Len and Total
// come from the embedded ring.Ring.
type Recorder struct {
	*ring.Ring[Trace]
}

// New returns a recorder keeping the most recent capacity traces.
func New(capacity int) *Recorder {
	return &Recorder{ring.New[Trace](capacity)}
}

// addDropped bumps the dropped-span count of a published trace still in
// the buffer (spans that ended after their root froze the trace).
func (r *Recorder) addDropped(traceID uint64) {
	id := formatID(traceID)
	r.Each(func(t *Trace) bool {
		if t.TraceID != id {
			return true
		}
		t.DroppedSpans++
		return false
	})
}
