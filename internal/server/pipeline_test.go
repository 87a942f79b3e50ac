// Tests for the per-connection worker pool (Options.PipelineDepth,
// DESIGN.md §10): concurrent handling on one connection, the sequential
// default, panic recovery through the pipelined path, and graceful drain of
// several in-flight pipelined requests.
package server

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// pump writes n GetSchema requests (IDs 1..n) on conn and then reads n
// responses, returning them keyed by ID.
func pump(t *testing.T, conn net.Conn, n int) map[uint64]proto.Response {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := proto.WriteMessage(conn, proto.Request{
			ID: uint64(i), Op: proto.OpGetSchema, Schema: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	out := make(map[uint64]proto.Response, n)
	for i := 0; i < n; i++ {
		var resp proto.Response
		if err := proto.ReadMessage(conn, &resp); err != nil {
			t.Fatal(err)
		}
		out[resp.ID] = resp
	}
	return out
}

// barrierBackend holds every GetSchema until all the requests counted in
// entered have arrived: only a server that handles them at once gets past
// the first.
type barrierBackend struct {
	*ui.DirectBackend
	entered sync.WaitGroup
}

func (b *barrierBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	b.entered.Done()
	b.entered.Wait()
	return b.DirectBackend.GetSchema(ctx, schema)
}

// TestPipelineDepthRunsRequestsConcurrently: with PipelineDepth=4, 4
// pipelined requests must all be inside the backend at once, which the
// barrier proves without timing them. The read deadline only turns a
// sequential server's stall into a failure instead of a hang.
func TestPipelineDepthRunsRequestsConcurrently(t *testing.T) {
	backend := &barrierBackend{DirectBackend: testBackend(t)}
	backend.entered.Add(4)
	srv := New(backend)
	srv.PipelineDepth = 4
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
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	resps := pump(t, conn, 4)
	for id := uint64(1); id <= 4; id++ {
		if r, ok := resps[id]; !ok || r.Err != "" || r.Schema == nil {
			t.Fatalf("response %d = %+v", id, resps[id])
		}
	}
}

// TestPipelineDefaultStaysSequential: with the zero-value PipelineDepth the
// pre-pipelining behavior is preserved exactly — requests on one connection
// are handled one at a time, in order.
func TestPipelineDefaultStaysSequential(t *testing.T) {
	delay := 60 * time.Millisecond
	srv := New(&slowBackend{DirectBackend: testBackend(t), delay: delay})
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()

	go func() {
		for i := 1; i <= 3; i++ {
			proto.WriteMessage(cliConn, proto.Request{
				ID: uint64(i), Op: proto.OpGetSchema, Schema: "s"})
		}
	}()
	start := time.Now()
	for i := 1; i <= 3; i++ {
		var resp proto.Response
		if err := proto.ReadMessage(cliConn, &resp); err != nil {
			t.Fatal(err)
		}
		// Sequential handling also means in-order responses.
		if resp.ID != uint64(i) {
			t.Fatalf("response %d arrived out of order (id %d)", i, resp.ID)
		}
	}
	if elapsed := time.Since(start); elapsed < 3*delay {
		t.Fatalf("3 requests finished in %v; default depth must serialize (>= %v)", elapsed, 3*delay)
	}
}

// TestPipelinedPanicRecovery: a panicking handler in the worker pool costs
// one request, not the connection — the other in-flight requests and later
// ones still answer.
func TestPipelinedPanicRecovery(t *testing.T) {
	srv := New(&panicBackend{DirectBackend: testBackend(t)})
	srv.PipelineDepth = 4
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()

	if err := proto.WriteMessage(cliConn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteMessage(cliConn, proto.Request{ID: 2, Op: proto.OpStats}); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]proto.Response{}
	for i := 0; i < 2; i++ {
		var resp proto.Response
		if err := proto.ReadMessage(cliConn, &resp); err != nil {
			t.Fatal(err)
		}
		got[resp.ID] = resp
	}
	if !strings.Contains(got[1].Err, "internal error") {
		t.Fatalf("panic surfaced as %q", got[1].Err)
	}
	if got[2].Err != "" || got[2].Stats == nil {
		t.Fatalf("sibling request caught the panic: %+v", got[2])
	}
	// The connection survived.
	if err := proto.WriteMessage(cliConn, proto.Request{ID: 3, Op: proto.OpStats}); err != nil {
		t.Fatal(err)
	}
	var resp proto.Response
	if err := proto.ReadMessage(cliConn, &resp); err != nil || resp.Err != "" {
		t.Fatalf("connection dead after pipelined panic: %+v, %v", resp, err)
	}
}

// TestPipelinedGracefulDrain: Shutdown with several pipelined requests in
// flight must deliver every response before closing the connection.
func TestPipelinedGracefulDrain(t *testing.T) {
	delay := 150 * time.Millisecond
	srv := New(&slowBackend{DirectBackend: testBackend(t), delay: delay})
	srv.PipelineDepth = 4
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for i := 1; i <= 3; i++ {
		if err := proto.WriteMessage(conn, proto.Request{
			ID: uint64(i), Op: proto.OpGetSchema, Schema: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	//vet:ignore testleak -- lets the pipelined requests reach the worker pool before the drain begins
	time.Sleep(40 * time.Millisecond) // requests are now in the worker pool

	drained := make(chan map[uint64]proto.Response, 1)
	go func() {
		out := make(map[uint64]proto.Response, 3)
		for i := 0; i < 3; i++ {
			var resp proto.Response
			if err := proto.ReadMessage(conn, &resp); err != nil {
				break
			}
			out[resp.ID] = resp
		}
		drained <- out
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	out := <-drained
	if len(out) != 3 {
		t.Fatalf("drain delivered %d of 3 in-flight responses", len(out))
	}
	for id, r := range out {
		if r.Err != "" || r.Schema == nil {
			t.Fatalf("drained response %d = %+v", id, r)
		}
	}
	// After the last response the server closed the conn.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var dead proto.Response
	if err := proto.ReadMessage(conn, &dead); err == nil {
		t.Fatal("pipelined conn survived the drain")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
}
