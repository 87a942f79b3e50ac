// Tests for the client half of the tracing layer: a retried idempotent
// request stays ONE trace (the operation span keeps its identity across
// attempts) while every attempt gets its own span, and the per-attempt wire
// context restamps so the server parents under the live attempt.
package client

import (
	"net"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/server"
)

// TestRetryKeepsOneTraceNewAttemptNewSpan drops the first connection
// mid-frame; the retried GetSchema must produce a single client operation
// span (one trace ID) with two attempt children — the first errored, the
// second clean — all in the same trace.
func TestRetryKeepsOneTraceNewAttemptNewSpan(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	dials := 0
	dial := func() (net.Conn, error) {
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		dials++
		if dials == 1 {
			return faultnet.Wrap(cliConn, faultnet.Options{Seed: 11, DropAfterBytes: 10}), nil
		}
		return cliConn, nil
	}
	cli := New(Options{Dial: dial, Retry: testRetry, Seed: 7})
	defer cli.Close()
	rec := obs.NewSpanRecorder(32)
	cli.Tracer().AttachSink(rec)

	if _, _, err := cli.GetSchema(event.Context{User: "maria"}, "phone_net"); err != nil {
		t.Fatalf("drop not recovered: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2", dials)
	}

	var op obs.Span
	var attempts []obs.Span
	for _, sp := range rec.Spans() {
		switch sp.Name {
		case "client.get_schema":
			op = sp
		case "client.attempt":
			attempts = append(attempts, sp)
		}
	}
	if op.ID == 0 {
		t.Fatalf("no operation span recorded: %+v", rec.Spans())
	}
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2 (one per dial)", len(attempts))
	}
	if attempts[0].ID == attempts[1].ID {
		t.Error("retried attempt reused the first attempt's span ID")
	}
	for i, a := range attempts {
		if a.Trace != op.Trace {
			t.Errorf("attempt %d trace = %x, want the operation's %x (retry must keep one trace)", i+1, a.Trace, op.Trace)
		}
		if a.Parent != op.ID {
			t.Errorf("attempt %d parent = %x, want the operation span %x", i+1, a.Parent, op.ID)
		}
	}
	if attempts[0].Error == "" {
		t.Error("first (dropped) attempt should carry its transport error")
	}
	if attempts[1].Error != "" {
		t.Errorf("second attempt errored: %s", attempts[1].Error)
	}
}

// TestRetryRestampsWireContext: the server must see a different span parent
// on each attempt (the live attempt's span), while the trace ID stays fixed
// — verified from the server side through a shared tail sampler.
func TestRetryRestampsWireContext(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()
	ts := obs.NewTailSampler(obs.TailSamplerOptions{SlowestN: 8, HeadRate: 0})
	srv.Tracer = obs.NewTracer()
	srv.Tracer.AttachSink(ts)

	dials := 0
	dial := func() (net.Conn, error) {
		srvConn, cliConn := net.Pipe()
		dials++
		if dials == 1 {
			// Fault the SERVER side: the first request arrives whole and is
			// handled (and spanned), but the response dies mid-frame — the
			// client must retry on a fresh conn, restamping its context.
			go srv.ServeConn(faultnet.Wrap(srvConn, faultnet.Options{Seed: 3, DropAfterBytes: 20}))
		} else {
			go srv.ServeConn(srvConn)
		}
		return cliConn, nil
	}
	cli := New(Options{Dial: dial, Timeout: time.Second, Retry: testRetry, Seed: 5})
	defer cli.Close()
	rec := obs.NewSpanRecorder(32)
	cli.Tracer().AttachSink(rec)

	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatalf("drop not recovered: %v", err)
	}

	var opTrace uint64
	attemptIDs := map[uint64]bool{}
	for _, sp := range rec.Spans() {
		if sp.Name == "client.get_schema" {
			opTrace = sp.Trace
		}
		if sp.Name == "client.attempt" {
			attemptIDs[sp.ID] = true
		}
	}
	if opTrace == 0 || len(attemptIDs) < 2 {
		t.Fatalf("client spans incomplete: trace %x, %d attempts", opTrace, len(attemptIDs))
	}

	// Server request spans land in the shared sampler keyed by the SAME
	// trace, each parented on a DIFFERENT attempt span.
	deadline := time.Now().Add(2 * time.Second)
	var serverSpans []obs.Span
	for {
		if td, ok := ts.Get(opTrace); ok {
			serverSpans = serverSpans[:0]
			for _, sp := range td.Spans {
				if sp.Name == "server."+string(proto.OpGetSchema) {
					serverSpans = append(serverSpans, sp)
				}
			}
			if len(serverSpans) >= 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server handled %d spans for trace %x, want 2 (one per attempt)", len(serverSpans), opTrace)
		}
		time.Sleep(time.Millisecond)
	}
	parents := map[uint64]bool{}
	for _, sp := range serverSpans {
		if !attemptIDs[sp.Parent] {
			t.Errorf("server span parent %x is not a client attempt span", sp.Parent)
		}
		parents[sp.Parent] = true
	}
	if len(parents) < 2 {
		t.Error("both server spans parented on the same attempt: wire context was not restamped per attempt")
	}
}
