package main

// The traced run's instrumentation. Every wrapper here sits on a public
// boundary of the program (ui.Backend, event.Handler, storage.Pager,
// storage.LogFile, net.Conn), so the traced system is assembled from the
// same constructors as the untraced one with a timer around each layer. The
// program's own tracers stay detached in both runs.

import (
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/ui"
)

// span is one timed call at a layer boundary. Trace is the ID of the root
// span of its tree (an interaction or a commit); Parent is 0 for roots.
// Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix: ui, render, wire, server, active, edit.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// timer accumulates calls and busy time at one boundary.
type timer struct {
	n, ns atomic.Int64
}

func (t *timer) since(t0 time.Time) { t.n.Add(1); t.ns.Add(int64(time.Since(t0))) }

// tracer keeps spans in memory until the benchmark writes them out, plus the
// counters of the boundaries whose calls carry no interaction identity
// (pages, log writes, connection bytes).
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// methodQ hands client-side call_method span contexts to the server
	// side: call_method carries no event.Context over the wire, so the
	// server half takes the oldest waiting client span as its parent.
	// That is exact whenever one session at a time is in call_method.
	methodMu sync.Mutex
	methodQ  []obs.SpanContext

	pagerRead, pagerWrite, pagerSync timer
	walWrite, walSync                timer
	walBytes                         atomic.Int64
	wireBytes, roundTrips            atomic.Int64
	instances                        atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent; a zero parent makes it a root. A nil
// tracer, the untraced run's, records nothing.
func (t *tracer) begin(name string, parent obs.SpanContext) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.ids.Add(1), Parent: parent.Span, Trace: parent.Trace, Name: name, Start: t.now()}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	return s
}

// ctx is the span's identity as the program carries it in event.Context.
func (s span) ctx() obs.SpanContext { return obs.SpanContext{Trace: s.Trace, Span: s.ID} }

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) pushMethod(sc obs.SpanContext) {
	t.methodMu.Lock()
	t.methodQ = append(t.methodQ, sc)
	t.methodMu.Unlock()
}

func (t *tracer) popMethod() obs.SpanContext {
	t.methodMu.Lock()
	defer t.methodMu.Unlock()
	if len(t.methodQ) == 0 {
		return obs.SpanContext{}
	}
	sc := t.methodQ[0]
	t.methodQ = t.methodQ[1:]
	return sc
}

// isRoot reports whether s roots a tree: an interaction, a session connect
// or a commit. A parentless span of another layer is an orphan.
func (s span) isRoot() bool {
	return s.Parent == 0 && (s.layer() == "ui" || s.layer() == "edit")
}

// window returns the spans of every tree whose root ended in [from, to),
// in nanoseconds since the epoch, plus the count of those roots that are
// operations (interactions and commits, not session connects). Orphans that
// ended in the window are kept too, so the coverage check sees them.
func (t *tracer) window(from, to int64) (spans []span, ops int) {
	t.mu.Lock()
	all := append([]span(nil), t.spans...)
	t.mu.Unlock()
	keep := map[uint64]bool{}
	for _, s := range all {
		if s.Parent == 0 && s.End >= from && s.End < to {
			keep[s.ID] = true
			if s.isRoot() && s.Name != "ui.connect" {
				ops++
			}
		}
	}
	for _, s := range all {
		if keep[s.Trace] {
			spans = append(spans, s)
		}
	}
	return spans, ops
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may nest, overlap each
// other or stick out of their parent; only the covered part of the parent's
// own interval counts, once.
func selfTimes(spans []span) []int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur := s.Start // end of the covered prefix of s
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerSplit sums self time per layer, and returns the sum over roots of
// their durations for the coverage check.
func layerSplit(spans []span) (self map[string]int64, roots int64) {
	self = map[string]int64{}
	for i, ns := range selfTimes(spans) {
		self[spans[i].layer()] += ns
		if spans[i].isRoot() {
			roots += spans[i].End - spans[i].Start
		}
	}
	return self, roots
}

// tracedBackend times every ui.Backend call as a span of layer ("wire" on
// the client side of the protocol, "server" around the database backend)
// and stamps its own span into the event.Context it passes down, so the
// layer below parents its spans to it — across the wire, too.
//
// A session-side wrapper (parent non-nil) hangs its spans under the span
// *parent names, which the load loop sets to the current interaction; a
// server-side wrapper takes its parent from the context the request carried.
type tracedBackend struct {
	inner  ui.Backend
	t      *tracer
	layer  string
	parent *obs.SpanContext
}

func (b *tracedBackend) begin(ctx event.Context, verb string) (span, event.Context) {
	parent := ctx.Trace
	if b.parent != nil {
		parent = *b.parent
	}
	s := b.t.begin(b.layer+"."+verb, parent)
	ctx.Trace = s.ctx()
	return s, ctx
}

func (b *tracedBackend) Connect(ctx event.Context) error {
	s, ctx := b.begin(ctx, "connect")
	defer b.t.end(s)
	return b.inner.Connect(ctx)
}

func (b *tracedBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	s, ctx := b.begin(ctx, "get_schema")
	defer b.t.end(s)
	return b.inner.GetSchema(ctx, schema)
}

func (b *tracedBackend) GetClass(ctx event.Context, schema, class string) (ui.ClassData, *spec.Customization, error) {
	s, ctx := b.begin(ctx, "get_class")
	defer b.t.end(s)
	data, cust, err := b.inner.GetClass(ctx, schema, class)
	b.countInstances(len(data.Instances))
	return data, cust, err
}

func (b *tracedBackend) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ui.ClassData, *spec.Customization, error) {
	s, ctx := b.begin(ctx, "get_class_windowed")
	defer b.t.end(s)
	data, cust, err := b.inner.GetClassWindowed(ctx, schema, class, window)
	b.countInstances(len(data.Instances))
	return data, cust, err
}

func (b *tracedBackend) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	s, ctx := b.begin(ctx, "get_value")
	defer b.t.end(s)
	in, cust, err := b.inner.GetValue(ctx, oid)
	if err == nil {
		b.countInstances(1)
	}
	return in, cust, err
}

func (b *tracedBackend) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	s, ctx := b.begin(ctx, "select_where")
	defer b.t.end(s)
	return b.inner.SelectWhere(ctx, schema, class, filters)
}

func (b *tracedBackend) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	var parent obs.SpanContext
	if b.parent != nil {
		parent = *b.parent
	} else {
		parent = b.t.popMethod()
	}
	s := b.t.begin(b.layer+".call_method", parent)
	if b.parent != nil && b.layer == layerWire {
		b.t.pushMethod(s.ctx())
	}
	defer b.t.end(s)
	return b.inner.CallMethod(oid, method, args...)
}

// CommitTxn implements ui.TxnMutator for the editor and the server.
func (b *tracedBackend) CommitTxn(ctx event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	s, ctx := b.begin(ctx, "txn")
	defer b.t.end(s)
	m, ok := b.inner.(ui.TxnMutator)
	if !ok {
		return nil, ui.ErrNoTxn
	}
	return m.CommitTxn(ctx, ops)
}

// countInstances counts instances the database materialized; only the
// database side counts, so a wire round trip is not counted twice.
func (b *tracedBackend) countInstances(n int) {
	if b.layer == layerServer {
		b.t.instances.Add(int64(n))
	}
}

const (
	layerWire   = "wire"
	layerServer = "server"
)

// timedHandler is the active mechanism as the event bus sees it, timed: one
// "active" span per event, under the span stamped into the event's context.
type timedHandler struct {
	inner event.Handler
	t     *tracer
}

func (h timedHandler) HandleEvent(e event.Event) error {
	s := h.t.begin("active."+e.Kind.String(), e.Ctx.Trace)
	defer h.t.end(s)
	return h.inner.HandleEvent(e)
}

// timedPager times page reads, writes and syncs of the data file.
type timedPager struct {
	storage.Pager
	t *tracer
}

func (p timedPager) ReadPage(id storage.PageID, dst *storage.Page) error {
	defer p.t.pagerRead.since(time.Now())
	return p.Pager.ReadPage(id, dst)
}

func (p timedPager) WritePage(id storage.PageID, src *storage.Page) error {
	defer p.t.pagerWrite.since(time.Now())
	return p.Pager.WritePage(id, src)
}

func (p timedPager) Sync() error {
	defer p.t.pagerSync.since(time.Now())
	return p.Pager.Sync()
}

// timedLog times appends and syncs of the write-ahead log.
type timedLog struct {
	storage.LogFile
	t *tracer
}

func (l timedLog) WriteAt(b []byte, off int64) (int, error) {
	defer l.t.walWrite.since(time.Now())
	n, err := l.LogFile.WriteAt(b, off)
	l.t.walBytes.Add(int64(n))
	return n, err
}

func (l timedLog) Sync() error {
	defer l.t.walSync.since(time.Now())
	return l.LogFile.Sync()
}

// countingConn counts the bytes a client connection moves and its round
// trips: a read that returns data after a write ends one round trip. The
// sessions it serves issue one request at a time.
type countingConn struct {
	net.Conn
	t     *tracer
	wrote atomic.Bool
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.t.wireBytes.Add(int64(n))
	c.wrote.Store(true)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.t.wireBytes.Add(int64(n))
	if n > 0 && c.wrote.Swap(false) {
		c.t.roundTrips.Add(1)
	}
	return n, err
}
