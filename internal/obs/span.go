package obs

import (
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace. Spans link to their parent by ID
// and share their trace's ID, so a sink reconstructs the tree of one UI
// interaction even when its spans come from several tracers — or, via the
// wire protocol's trace context, several processes.
type Span struct {
	// Trace identifies the end-to-end request tree this span belongs to.
	// All spans of one interaction share it, across process boundaries.
	Trace uint64 `json:"trace"`
	// ID is unique per span; random, so IDs never collide across the
	// client and server processes of one trace.
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	// Error carries the failure the operation ended with, if any; the tail
	// sampler retains every trace containing an errored span.
	Error string `json:"error,omitempty"`

	tracer *Tracer
	// boundary marks a request root: when it finishes, the trace is
	// complete on this side of the wire and the tail sampler decides
	// retention (see TailSampler).
	boundary bool
}

// SpanContext is the portable identity of a span: enough to parent remote
// or cross-component children under it. The zero value is "no trace".
type SpanContext struct {
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// Duration returns the span's elapsed time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Context returns the span's portable identity; zero when tracing is
// disabled (nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// Set annotates the span; it is a nil-safe no-op when tracing is disabled,
// so instrumented code never branches.
func (s *Span) Set(key, value string) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
	return s
}

// Setf annotates the span with a formatted value. The format arguments are
// only evaluated when the span is live.
func (s *Span) Setf(key, format string, args ...any) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprintf(format, args...)})
	}
	return s
}

// SetError records the failure the span's operation ended with. Nil-safe on
// both receiver and err.
func (s *Span) SetError(err error) *Span {
	if s != nil && err != nil {
		s.Error = err.Error()
	}
	return s
}

// Child starts a sub-span in the same trace. Nil-safe: a disabled parent
// yields a disabled child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(name, s.Trace, s.ID, false)
}

// Finish stamps the end time and hands the span to the tracer's sink. It is
// nil-safe, and tolerates the sink detaching mid-span (the span is dropped).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End = time.Now()
	if ref := s.tracer.sink.Load(); ref != nil {
		ref.sink.record(*s)
	}
}

// SpanSink receives finished spans. It is a sealed interface: the two
// implementations are SpanRecorder (a plain ring of recent spans) and
// TailSampler (per-trace trees with tail-based retention).
type SpanSink interface {
	record(s Span)
}

// sinkRef boxes the interface so the tracer's sink slot stays a single
// atomic pointer.
type sinkRef struct{ sink SpanSink }

// Tracer hands out spans. With no sink attached (the default) every Start
// variant returns nil and costs one atomic load — no allocation; all Span
// methods are nil-safe no-ops. Tracer methods are also safe on a nil
// receiver, so optional tracer fields need no guards.
type Tracer struct {
	sink atomic.Pointer[sinkRef]
}

// NewTracer returns a disabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// AttachSink directs finished spans into sink (a SpanRecorder, or a
// TailSampler shared by several tracers, joining their spans into one trace
// tree). An untyped nil detaches and disables tracing; a typed nil
// *SpanRecorder is a non-nil sink and must not be passed.
func (t *Tracer) AttachSink(sink SpanSink) {
	if sink == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkRef{sink: sink})
}

// Enabled reports whether a sink is attached.
func (t *Tracer) Enabled() bool { return t != nil && t.sink.Load() != nil }

// Start begins the root span of a fresh trace. The span is a request
// boundary: finishing it tells a TailSampler sink the trace is complete.
func (t *Tracer) Start(name string) *Span { return t.StartRequest(name, SpanContext{}) }

// StartRequest begins a request-boundary span: the local root of a trace
// that may have originated elsewhere (parent carries the remote identity; an
// invalid parent starts a fresh trace). Finishing it completes the trace on
// this side, so a TailSampler sink makes its retention decision then.
func (t *Tracer) StartRequest(name string, parent SpanContext) *Span {
	if !t.Enabled() {
		return nil
	}
	if parent.Valid() {
		return t.newSpan(name, parent.Trace, parent.Span, true)
	}
	return t.newSpan(name, newID(), 0, true)
}

// StartSpan begins a span continuing the parent context — the in-process
// propagation entry point for components below the request boundary (engine
// dispatch, database primitives). With an invalid parent it behaves like
// Start: the span roots a fresh trace of its own.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if !t.Enabled() {
		return nil
	}
	if parent.Valid() {
		return t.newSpan(name, parent.Trace, parent.Span, false)
	}
	return t.newSpan(name, newID(), 0, true)
}

func (t *Tracer) newSpan(name string, trace, parent uint64, boundary bool) *Span {
	if !t.Enabled() {
		return nil
	}
	return &Span{
		Trace:    trace,
		ID:       newID(),
		Parent:   parent,
		Name:     name,
		Start:    time.Now(),
		tracer:   t,
		boundary: boundary,
	}
}

// newID returns a random non-zero 64-bit identifier. Randomness (rather
// than a per-tracer counter) keeps IDs unique across the many tracers — and
// the two processes — that contribute spans to one trace.
func newID() uint64 {
	for {
		if id := mrand.Uint64(); id != 0 {
			return id
		}
	}
}

// IDString renders a trace or span ID the way logs and the trace verb print
// them: 16 hex digits.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses the IDString form (with or without a 0x prefix).
func ParseID(s string) (uint64, error) {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	var id uint64
	if _, err := fmt.Sscanf(s, "%x", &id); err != nil {
		return 0, fmt.Errorf("obs: bad id %q: %w", s, err)
	}
	return id, nil
}

// SpanRecorder is a fixed-capacity ring buffer of finished spans: attach one
// to a Tracer to capture the most recent traffic without unbounded growth.
type SpanRecorder struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
	full  bool
}

// NewSpanRecorder returns a ring holding the last capacity finished spans
// (capacity < 1 is treated as 1).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRecorder{buf: make([]Span, capacity)}
}

func (r *SpanRecorder) record(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many spans were recorded over the recorder's lifetime
// (including those the ring has since overwritten).
func (r *SpanRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
