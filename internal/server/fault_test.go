package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// slowBackend delays GetSchema so tests can hold a request in flight.
type slowBackend struct {
	*ui.DirectBackend
	delay time.Duration
}

func (b *slowBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	//vet:ignore testleak -- the delay is the fixture: a deliberately slow backend
	time.Sleep(b.delay)
	return b.DirectBackend.GetSchema(ctx, schema)
}

// panicBackend panics on GetValue, standing in for a backend bug.
type panicBackend struct {
	*ui.DirectBackend
}

func (b *panicBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	panic("backend bug: GetSchema exploded")
}

func counter(name string) uint64 {
	return obs.Default().Counter(name).Value()
}

func TestPanicInHandleReturnsProtocolError(t *testing.T) {
	srv := New(&panicBackend{DirectBackend: testBackend(t)})
	var logs logSink
	srv.Log = logs.logger()
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()

	before := counter("gis_server_panics_total")
	resp := rawExchange(t, cliConn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "s"})
	if !strings.Contains(resp.Err, "internal error") {
		t.Fatalf("panic surfaced as %q", resp.Err)
	}
	if got := counter("gis_server_panics_total"); got != before+1 {
		t.Fatalf("gis_server_panics_total = %d, want %d", got, before+1)
	}
	// The recovery logged before the response left, so its line is out.
	warns := logs.lines(t, "WARN")
	if len(warns) != 1 || warns[0]["verb"] != "get_schema" ||
		!strings.Contains(fmt.Sprint(warns[0]["panic"]), "GetSchema exploded") {
		t.Fatalf("warn lines = %v, want one naming the panic", warns)
	}
	// The connection survived: a non-panicking verb still answers.
	resp = rawExchange(t, cliConn, proto.Request{ID: 2, Op: proto.OpStats})
	if resp.Err != "" || resp.Stats == nil {
		t.Fatalf("connection dead after panic: %+v", resp)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	backend := &slowBackend{DirectBackend: testBackend(t), delay: 250 * time.Millisecond}
	srv := New(backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	busy, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Prove the idle conn is registered before the drain starts.
	if resp := rawExchange(t, idle, proto.Request{ID: 1, Op: proto.OpStats}); resp.Err != "" {
		t.Fatal(resp.Err)
	}

	type result struct {
		resp proto.Response
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		var r result
		r.err = proto.WriteMessage(busy, proto.Request{ID: 7, Op: proto.OpGetSchema, Schema: "s"})
		if r.err == nil {
			r.err = proto.ReadMessage(busy, &r.resp)
		}
		inflight <- r
	}()
	//vet:ignore testleak -- parks the request in the slow backend before Shutdown is called; that overlap is the scenario
	time.Sleep(60 * time.Millisecond) // request is now sleeping in the backend

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-inflight
	if r.err != nil || r.resp.Err != "" || r.resp.Schema == nil {
		t.Fatalf("in-flight request not drained: %+v, %v", r.resp, r.err)
	}
	// The idle conn was closed by the drain.
	idle.SetReadDeadline(time.Now().Add(time.Second))
	var dead proto.Response
	if err := proto.ReadMessage(idle, &dead); err == nil {
		t.Fatal("idle conn survived the drain")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
	// New conns are refused after shutdown: either dial fails or the conn
	// is closed without service.
	if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
		c.SetReadDeadline(time.Now().Add(time.Second))
		var r proto.Response
		if err := proto.ReadMessage(c, &r); err == nil {
			t.Fatal("server answered after Shutdown")
		}
		c.Close()
	}
}

func TestShutdownTimeoutForcesClose(t *testing.T) {
	backend := &slowBackend{DirectBackend: testBackend(t), delay: time.Second}
	srv := New(backend)
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer cliConn.Close()

	go proto.WriteMessage(cliConn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "s"})
	//vet:ignore testleak -- lets the request land in the backend so Shutdown has something to time out on
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	srv.mu.Lock()
	closed := srv.closed
	srv.mu.Unlock()
	if !closed {
		t.Fatal("server not closed after drain timeout")
	}
}

func TestIdleTimeoutDisconnects(t *testing.T) {
	srv := New(testBackend(t))
	srv.IdleTimeout = 80 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	before := counter("gis_server_idle_timeouts_total")
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One request works; then the conn sits idle past the deadline.
	if resp := rawExchange(t, conn, proto.Request{ID: 1, Op: proto.OpStats}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp proto.Response
	if err := proto.ReadMessage(conn, &resp); err == nil {
		t.Fatal("idle connection was not disconnected")
	}
	if got := counter("gis_server_idle_timeouts_total"); got != before+1 {
		t.Fatalf("gis_server_idle_timeouts_total = %d, want %d", got, before+1)
	}
}

func TestMaxConnsAcceptBackpressure(t *testing.T) {
	srv := New(testBackend(t))
	srv.MaxConns = 1
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	first, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if resp := rawExchange(t, first, proto.Request{ID: 1, Op: proto.OpStats}); resp.Err != "" {
		t.Fatal(resp.Err)
	}

	// The second conn lands in the listen backlog but is not served while
	// the first holds the only slot.
	second, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := proto.WriteMessage(second, proto.Request{ID: 2, Op: proto.OpStats}); err != nil {
		t.Fatal(err)
	}
	second.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var resp proto.Response
	if err := proto.ReadMessage(second, &resp); err == nil {
		t.Fatal("second conn served beyond MaxConns")
	}

	// Freeing the slot lets the backlogged conn through.
	first.Close()
	second.SetReadDeadline(time.Now().Add(3 * time.Second))
	if err := proto.ReadMessage(second, &resp); err != nil || resp.ID != 2 {
		t.Fatalf("backpressured conn not served after slot freed: %+v, %v", resp, err)
	}
}

// TestCloseServeConnRace drives many concurrent ServeConn registrations
// against Close: every connection must end up closed and untracked — the
// pre-fix code could register a conn after Close and leak it forever.
func TestCloseServeConnRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv := New(testBackend(t))
		const n = 16
		var wg sync.WaitGroup
		clientEnds := make([]net.Conn, n)
		for i := 0; i < n; i++ {
			s, c := net.Pipe()
			clientEnds[i] = c
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				srv.ServeConn(conn)
			}(s)
		}
		go srv.Close()
		// Every ServeConn must return: registered conns are closed by
		// Close, late arrivals are closed by register's closed check.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn goroutines leaked after Close")
		}
		srv.mu.Lock()
		leaked := len(srv.conns)
		srv.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("round %d: %d conns tracked after Close", round, leaked)
		}
		for _, c := range clientEnds {
			c.Close()
		}
	}
}

// TestServeBackpressureUnblocksOnShutdown pins that a Serve parked on the
// MaxConns wait wakes up and returns when the server shuts down.
func TestServeBackpressureUnblocksOnShutdown(t *testing.T) {
	srv := New(testBackend(t))
	srv.MaxConns = 1
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
	if resp := rawExchange(t, conn, proto.Request{ID: 1, Op: proto.OpStats}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	//vet:ignore testleak -- lets Serve park on the connection cap before Shutdown unblocks it
	time.Sleep(50 * time.Millisecond) // Serve is now parked on the cap
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve stayed parked through Shutdown")
	}
}
