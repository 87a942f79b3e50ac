package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/proto"
	"repro/internal/ui"
)

// mustOpen replaces the removed geodb.MustOpen for tests: Open or fail the
// test. The library's open/recovery path returns errors instead of
// panicking, so a corrupt page file degrades gracefully in servers.
func mustOpen(t testing.TB, opts geodb.Options) *geodb.DB {
	t.Helper()
	db, err := geodb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testBackend(t testing.TB) *ui.DirectBackend {
	t.Helper()
	db := mustOpen(t, geodb.Options{})
	if err := db.DefineSchema("s"); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("s", catalog.Class{
		Name:  "C",
		Attrs: []catalog.Field{catalog.F("n", catalog.Scalar(catalog.KindText))},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(event.Context{}, "s", "C", []catalog.Value{catalog.TextVal("x")}); err != nil {
		t.Fatal(err)
	}
	return ui.NewDirectBackend(db, active.NewEngine())
}

// rawExchange sends one framed request and reads the framed response.
func rawExchange(t *testing.T, conn net.Conn, req proto.Request) proto.Response {
	t.Helper()
	if err := proto.WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}
	var resp proto.Response
	if err := proto.ReadMessage(conn, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// logSink collects the server's JSON log lines. Connection goroutines write
// it while the test reads it, hence the mutex.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// logger returns a debug-level JSON logger writing to the sink.
func (l *logSink) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(l, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// lines decodes the lines written so far at the given level.
func (l *logSink) lines(t *testing.T, level string) []map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(l.buf.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("log is not JSON lines: %v\n%s", err, l.buf.String())
		}
		if m["level"] == level {
			out = append(out, m)
		}
	}
	return out
}

func TestUnknownOp(t *testing.T) {
	srv := New(testBackend(t))
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()
	resp := rawExchange(t, cliConn, proto.Request{ID: 1, Op: "explode"})
	if resp.ID != 1 || !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestRequestErrorsDoNotKillConnection(t *testing.T) {
	srv := New(testBackend(t))
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	defer cliConn.Close()
	// A failing request...
	resp := rawExchange(t, cliConn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "ghost"})
	if resp.Err == "" {
		t.Fatal("expected error")
	}
	// ...followed by a succeeding one on the same connection.
	resp = rawExchange(t, cliConn, proto.Request{ID: 2, Op: proto.OpGetSchema, Schema: "s"})
	if resp.Err != "" || resp.Schema == nil || resp.Schema.Name != "s" {
		t.Fatalf("resp = %+v", resp)
	}
	if n := srv.Requests.Load(); n != 2 {
		t.Fatalf("requests = %d", n)
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	srv := New(testBackend(t))
	srvConn, cliConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(srvConn)
		close(done)
	}()
	defer srv.Close()
	// An oversize frame header: the server drops the connection.
	cliConn.Write([]byte{0xff, 0xff, 0xff, 0xff})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("server did not drop the malformed connection")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	srv := New(testBackend(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	// Open a connection so Close also exercises live-conn shutdown.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	//vet:ignore testleak -- lets the accept loop pick up the conn before Close tears it down
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double close is fine; serving again is rejected.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Fatal("Serve after Close should fail")
	}
}

// TestStatsVerbOverTCP exercises the observability verb end to end: a real
// TCP connection, traffic to move the counters, then a STATS round trip whose
// snapshot must reflect that traffic.
func TestStatsVerbOverTCP(t *testing.T) {
	srv := New(testBackend(t))
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
	resp := rawExchange(t, conn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "s"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	resp = rawExchange(t, conn, proto.Request{ID: 2, Op: proto.OpStats})
	if resp.Err != "" || resp.Stats == nil {
		t.Fatalf("stats resp = %+v", resp)
	}
	// The registry is process-wide, so assert lower bounds, not equality.
	if got := resp.Stats.Counters["gis_server_requests_total"]; got < 2 {
		t.Errorf("gis_server_requests_total = %d, want >= 2", got)
	}
	h, ok := resp.Stats.Histograms[`gis_server_verb_seconds{verb="get_schema"}`]
	if !ok || h.Count < 1 {
		t.Errorf("get_schema latency histogram missing or empty: %+v", h)
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		t.Errorf("histogram snapshot shape: %d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
}

func TestConcurrentConnections(t *testing.T) {
	srv := New(testBackend(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(id uint64) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			for j := 0; j < 25; j++ {
				if err := proto.WriteMessage(conn, proto.Request{ID: id, Op: proto.OpGetSchema, Schema: "s"}); err != nil {
					done <- err
					return
				}
				var resp proto.Response
				if err := proto.ReadMessage(conn, &resp); err != nil {
					done <- err
					return
				}
				if resp.ID != id || resp.Err != "" {
					done <- net.ErrClosed
					return
				}
			}
			done <- nil
		}(uint64(i + 1))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownCheckpoints: a graceful Shutdown ends with exactly one call to
// the Checkpoint hook, after the drain, and a checkpoint failure surfaces as
// the Shutdown error.
func TestShutdownCheckpoints(t *testing.T) {
	srv := New(testBackend(t))
	var calls int32
	srv.Checkpoint = func() error {
		if srv.Draining() != true {
			t.Error("checkpoint ran before the drain finished")
		}
		atomic.AddInt32(&calls, 1)
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resp := rawExchange(t, conn, proto.Request{ID: 1, Op: proto.OpGetSchema, Schema: "s"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("checkpoint hook called %d times, want 1", n)
	}

	// A failing checkpoint turns an otherwise clean shutdown into an error.
	srv2 := New(testBackend(t))
	wantErr := errors.New("disk gone")
	srv2.Checkpoint = func() error { return wantErr }
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); !errors.Is(err, wantErr) {
		t.Fatalf("shutdown error = %v, want the checkpoint failure", err)
	}
}
