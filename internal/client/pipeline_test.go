// Tests for the pipelined, multiplexed client (DESIGN.md §10): concurrent
// callers sharing one connection, and the faultnet failure modes extended
// to several in-flight requests — a poisoned stream must fail every waiter
// fast and the client must reconnect cleanly afterwards.
package client

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/server"
)

// TestPipelinedConcurrentCallers multiplexes many goroutines over ONE
// client connection against a real server: every caller must get its own
// answer (the demux pairs responses by ID).
func TestPipelinedConcurrentCallers(t *testing.T) {
	backend, _, poles := serverWorld(t)
	srv := server.New(backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	cli, err := DialOptions(l.Addr().String(), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx := event.Context{User: "juliano", Application: "pole_manager"}
	const callers, rounds = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				oid := poles[(c+r)%len(poles)]
				in, _, err := cli.GetValue(ctx, oid)
				if err != nil {
					t.Errorf("caller %d round %d: %v", c, r, err)
					return
				}
				if in.OID != oid {
					t.Errorf("caller %d round %d: demux mixed up instances: got %d want %d",
						c, r, in.OID, oid)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// fourInFlight issues 4 concurrent requests through cli and returns their
// errors once all have settled. The faulty peer must guarantee all 4 are
// written before it injects its failure.
func fourInFlight(cli *Client) [4]error {
	var wg sync.WaitGroup
	var errs [4]error
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cli.GetSchema(event.Context{}, "phone_net")
		}(i)
	}
	wg.Wait()
	return errs
}

// TestPipelinedMidFrameDropFailsAllInFlight: the connection dies mid-frame
// while 4 requests are in flight. All 4 must fail fast (not hang waiting
// for responses that can never arrive), the connection is poisoned exactly
// once, and the next request reconnects cleanly to a healthy server.
func TestPipelinedMidFrameDropFailsAllInFlight(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials == 1 {
			srvConn, cliConn := net.Pipe()
			go func() {
				// Absorb all 4 requests without answering, then die in the
				// middle of a response frame: a length prefix promising 100
				// bytes, one byte of payload, EOF.
				for i := 0; i < 4; i++ {
					var req proto.Request
					if err := proto.ReadMessage(srvConn, &req); err != nil {
						return
					}
				}
				srvConn.Write([]byte{0, 0, 0, 100, '{'})
				srvConn.Close()
			}()
			return cliConn, nil
		}
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		return cliConn, nil
	}
	// No retry policy: the in-flight failures must surface, not heal.
	cli := New(Options{Dial: dial})
	defer cli.Close()

	poisonBefore := counter("gis_client_conn_poisoned_total")
	errs := fourInFlight(cli)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("in-flight request %d survived the mid-frame drop", i)
		}
	}
	if got := counter("gis_client_conn_poisoned_total"); got != poisonBefore+1 {
		t.Fatalf("poisoned = %d, want exactly %d", got, poisonBefore+1)
	}
	if dials != 1 {
		t.Fatalf("dials = %d before recovery, want 1", dials)
	}
	// Reconnect cleanly: the poisoned session is gone, a fresh dial works.
	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatalf("reconnect after poison failed: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d after recovery, want 2", dials)
	}
}

// TestPipelinedIDMismatchFailsAllInFlight: a response with an ID that
// matches no in-flight request proves the stream is desynchronized; with 4
// requests outstanding, every one must fail fast and the connection must be
// poisoned, then a fresh dial recovers.
func TestPipelinedIDMismatchFailsAllInFlight(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials == 1 {
			srvConn, cliConn := net.Pipe()
			go func() {
				for i := 0; i < 4; i++ {
					var req proto.Request
					if err := proto.ReadMessage(srvConn, &req); err != nil {
						return
					}
				}
				// An ID the client never issued.
				proto.WriteMessage(srvConn, proto.Response{ID: 99999})
			}()
			return cliConn, nil
		}
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		return cliConn, nil
	}
	cli := New(Options{Dial: dial})
	defer cli.Close()

	poisonBefore := counter("gis_client_conn_poisoned_total")
	errs := fourInFlight(cli)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("in-flight request %d survived the ID desync", i)
		}
		if !strings.Contains(err.Error(), "response id") {
			t.Fatalf("request %d failed with %v, want an ID-desync error", i, err)
		}
	}
	if got := counter("gis_client_conn_poisoned_total"); got != poisonBefore+1 {
		t.Fatalf("poisoned = %d, want exactly %d", got, poisonBefore+1)
	}
	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatalf("reconnect after desync failed: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2", dials)
	}
}
