// Tests for the tracing layer at the server: trace-context propagation from
// the wire into the request span under the pipelined worker pool (the span
// must be parented on the client's span even when a pooled goroutine handles
// the request), propagation onward into the engine and database tracers, and
// the tail sampler's retention of a deliberately slowed request.
package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// waitTraces polls until the sampler has retained n traces (span finish
// happens after the response frame is written, so a client that has read
// every response may still be a few microseconds ahead of the sink).
func waitTraces(t *testing.T, ts *obs.TailSampler, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ts.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sampler retained %d traces, want %d", ts.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// findSpan returns the first span with the given name.
func findSpan(td obs.TraceData, name string) (obs.Span, bool) {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// TestTracePropagationUnderPipelining sends depth-4 pipelined requests, each
// carrying a distinct client-side trace context, and asserts every server
// request span continues its client's trace with correct parent linkage —
// the regression the pooled-worker handoff used to lose — and that the
// engine and database spans below it join the same trace.
func TestTracePropagationUnderPipelining(t *testing.T) {
	backend := testBackend(t)
	srv := New(backend)
	srv.PipelineDepth = 4
	ts := obs.NewTailSampler(obs.TailSamplerOptions{SlowestN: 16, HeadRate: 0})
	srv.Tracer = obs.NewTracer()
	srv.Tracer.AttachSink(ts)
	backend.DB.Tracer().AttachSink(ts)
	backend.Engine.Tracer().AttachSink(ts)
	srv.TraceStore = ts

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 8
	clientSpans := make(map[uint64]obs.SpanContext, n) // request ID -> context
	for i := uint64(1); i <= n; i++ {
		sc := obs.SpanContext{Trace: 0xA000 + i, Span: 0xB000 + i}
		clientSpans[i] = sc
		if err := proto.WriteMessage(conn, proto.Request{
			ID: i, Op: proto.OpGetSchema, Schema: "s", Trace: &sc}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var resp proto.Response
		if err := proto.ReadMessage(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("response %d: %s", resp.ID, resp.Err)
		}
	}
	waitTraces(t, ts, n)

	for id, sc := range clientSpans {
		td, ok := ts.Get(sc.Trace)
		if !ok {
			t.Fatalf("trace %x of request %d not retained", sc.Trace, id)
		}
		srvSpan, ok := findSpan(td, "server.get_schema")
		if !ok {
			t.Fatalf("trace %x has no server span: %+v", sc.Trace, td.Spans)
		}
		if srvSpan.Parent != sc.Span {
			t.Errorf("request %d: server span parent = %x, want the client span %x (parent linkage lost in the worker pool)",
				id, srvSpan.Parent, sc.Span)
		}
		dbSpan, ok := findSpan(td, "geodb.get_schema")
		if !ok {
			t.Fatalf("trace %x did not propagate into the database", sc.Trace)
		}
		if dbSpan.Parent != srvSpan.ID {
			t.Errorf("request %d: geodb span parent = %x, want server span %x", id, dbSpan.Parent, srvSpan.ID)
		}
		if dispatch, ok := findSpan(td, "active.dispatch"); !ok {
			t.Errorf("trace %x did not propagate into the rule engine", sc.Trace)
		} else if dispatch.Trace != sc.Trace {
			t.Errorf("dispatch span trace = %x, want %x", dispatch.Trace, sc.Trace)
		}
		for _, sp := range td.Spans {
			if sp.Trace != sc.Trace {
				t.Errorf("span %q carries trace %x, want %x", sp.Name, sp.Trace, sc.Trace)
			}
		}
	}
}

// stallBackend delays GetSchema only for a marked context, so one request in
// a stream can be made deliberately slow.
type stallBackend struct {
	*ui.DirectBackend
	delay time.Duration
}

func (b *stallBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	if ctx.User == "slowpoke" {
		//vet:ignore testleak -- the stall is the fixture: slowpoke requests must outlast the fast ones
		time.Sleep(b.delay)
	}
	return b.DirectBackend.GetSchema(ctx, schema)
}

// TestTailSamplerRetainsSlowRequest is the acceptance demo: with SlowestN=1
// and head sampling off, a deliberately slowed request is retained while the
// fast ones around it are dropped, and its slow-request log line carries the
// trace ID that finds it.
func TestTailSamplerRetainsSlowRequest(t *testing.T) {
	srv := New(&stallBackend{DirectBackend: testBackend(t), delay: 60 * time.Millisecond})
	ts := obs.NewTailSampler(obs.TailSamplerOptions{SlowestN: 1, HeadRate: 0})
	srv.Tracer = obs.NewTracer()
	srv.Tracer.AttachSink(ts)
	srv.TraceStore = ts
	var logs logSink
	srv.Log = logs.logger()
	srv.SlowRequest = 50 * time.Millisecond

	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()

	const slowTrace = 0xF00D
	for i := uint64(1); i <= 6; i++ {
		req := proto.Request{ID: i, Op: proto.OpGetSchema, Schema: "s",
			Trace: &obs.SpanContext{Trace: 0xC000 + i, Span: 1}}
		if i == 4 {
			req.Ctx = event.Context{User: "slowpoke"}
			req.Trace = &obs.SpanContext{Trace: slowTrace, Span: 1}
		}
		resp := rawExchange(t, cliConn, req)
		if resp.Err != "" {
			t.Fatalf("request %d: %s", i, resp.Err)
		}
	}
	// The connection reads request 5 only after request 4 is logged.
	var slow map[string]any
	for _, ln := range logs.lines(t, "WARN") {
		if ln["msg"] == "slow request" && ln["trace"] == obs.IDString(slowTrace) {
			slow = ln
		}
	}
	if dur, _ := slow["dur_ms"].(float64); dur < 60 || slow["verb"] != "get_schema" ||
		slow["conn"] == nil || slow["peer"] == nil || slow["time"] == nil {
		t.Fatalf("slow request line = %v, want one for trace %s", slow, obs.IDString(slowTrace))
	}
	waitTraces(t, ts, 1)

	// The slow request must be the sole retained trace once the stream has
	// settled: every fast trace was either dropped outright or displaced.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if td, ok := ts.Get(slowTrace); ok && ts.Len() == 1 {
			if td.Reason != obs.ReasonSlow {
				t.Fatalf("slow trace reason = %q", td.Reason)
			}
			if td.Duration < 60*time.Millisecond {
				t.Fatalf("slow trace duration = %v, want >= the injected delay", td.Duration)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained = %+v, want only the slowed trace %x", ts.Traces(), uint64(slowTrace))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceVerb exercises the trace protocol verb end to end: listing the
// retained traces and fetching one by ID.
func TestTraceVerb(t *testing.T) {
	srv := New(testBackend(t))
	ts := obs.NewTailSampler(obs.TailSamplerOptions{SlowestN: 4, HeadRate: 0})
	srv.Tracer = obs.NewTracer()
	srv.Tracer.AttachSink(ts)
	srv.TraceStore = ts

	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()

	sc := obs.SpanContext{Trace: 0xABC, Span: 0xDEF}
	if resp := rawExchange(t, cliConn, proto.Request{
		ID: 1, Op: proto.OpGetSchema, Schema: "s", Trace: &sc}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	waitTraces(t, ts, 1)

	list := rawExchange(t, cliConn, proto.Request{ID: 2, Op: proto.OpTrace})
	if list.Err != "" || len(list.Traces) != 1 || list.Traces[0].TraceID != sc.Trace {
		t.Fatalf("trace list = %+v (err %q)", list.Traces, list.Err)
	}
	one := rawExchange(t, cliConn, proto.Request{ID: 3, Op: proto.OpTrace, TraceID: sc.Trace})
	if one.Err != "" || len(one.Traces) != 1 {
		t.Fatalf("trace fetch = %+v (err %q)", one.Traces, one.Err)
	}
	if _, ok := findSpan(one.Traces[0], "server.get_schema"); !ok {
		t.Errorf("fetched trace lacks the request span: %+v", one.Traces[0].Spans)
	}
	missing := rawExchange(t, cliConn, proto.Request{ID: 4, Op: proto.OpTrace, TraceID: 0x404})
	if missing.Err == "" || len(missing.Traces) != 0 {
		t.Errorf("unknown trace ID should answer a remote error, got %+v (err %q)", missing.Traces, missing.Err)
	}
}

// TestTraceVerbWithoutStore: a server with tracing disabled answers the
// trace verb with a remote error, not a crash.
func TestTraceVerbWithoutStore(t *testing.T) {
	srv := New(testBackend(t))
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()
	resp := rawExchange(t, cliConn, proto.Request{ID: 1, Op: proto.OpTrace})
	if resp.Err == "" {
		t.Fatal("trace verb without a store should fail")
	}
}
