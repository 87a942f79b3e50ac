// Tests for requests pipelined on one connection: the server handles them
// one at a time and answers in order (DESIGN.md §10).
package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestPipelineDefaultStaysSequential: requests pipelined on one connection
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
		t.Fatalf("3 requests finished in %v; the server must serialize them (>= %v)", elapsed, 3*delay)
	}
}
