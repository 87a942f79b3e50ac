// Fault-injection tests for the weak-integration transport: the client's
// retry/reconnect/timeout/poisoning machinery against a server that is
// killed, stalls, drops connections mid-frame, or corrupts bytes — driven
// by the internal/faultnet harness so every failure is deterministic.
package client

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/builder"
	"repro/internal/event"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/ui"
)

func counter(name string) uint64 {
	return obs.Default().Counter(name).Value()
}

// testRetry is aggressive enough to ride out a server restart in tests
// without stretching wall-clock time.
var testRetry = RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 80 * time.Millisecond}

// TestServerRestartMidSessionRecovers is the acceptance scenario of the
// robustness PR: a UI exploratory session is underway when the server dies;
// a replacement comes up on the same address; the client — configured with
// reconnect + retry — completes the rest of the scenario with zero
// user-visible errors, and the recovery is visible in the STATS snapshot.
func TestServerRestartMidSessionRecovers(t *testing.T) {
	backend, lib, poles := serverWorld(t)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	srv1 := server.New(backend)
	go srv1.Serve(l1)

	reconBefore := counter("gis_client_reconnects_total")

	cli, err := DialOptions(addr, Options{
		Timeout: 2 * time.Second,
		Retry:   testRetry,
		Seed:    1997,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	bld := builder.New(lib, cli)
	s := ui.NewSession(cli, bld, event.Context{User: "juliano", Application: "pole_manager"})

	// --- First half of the exploratory scenario. ---
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	win, err := s.OpenSchema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if win.Prop("visible") != "false" {
		t.Fatal("customization did not cross the protocol")
	}

	// --- Kill the server mid-session... ---
	srv1.Close()
	// ...and restart it on the same address.
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := server.New(backend)
	go srv2.Serve(l2)
	defer srv2.Close()

	// --- Second half: same session object, zero user-visible errors. ---
	classWin, err := s.OpenClass("phone_net", "Pole")
	if err != nil {
		t.Fatalf("session did not survive the restart: %v", err)
	}
	if classWin.Find("poleWidget") == nil {
		t.Fatal("customization lost after reconnect")
	}
	if got := len(classWin.Find("map").Shapes); got != 4 {
		t.Fatalf("shapes after reconnect = %d", got)
	}
	// The instance window exercises CallMethod over the reconnected link.
	if _, err := s.OpenInstance(poles[0]); err != nil {
		t.Fatal(err)
	}

	// The recovery is observable through the STATS verb: the client-side
	// counters live in the same process-wide registry the verb snapshots.
	snap, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["gis_client_reconnects_total"]; got < reconBefore+1 {
		t.Fatalf("gis_client_reconnects_total = %d, want > %d", got, reconBefore)
	}
	if _, ok := snap.Counters["gis_client_retries_total"]; !ok {
		t.Fatal("retry counter missing from STATS snapshot")
	}
	if _, ok := snap.Counters["gis_client_conn_poisoned_total"]; !ok {
		t.Fatal("poison counter missing from STATS snapshot")
	}
}

// TestMidFrameDropRecovered injects a connection that dies mid-frame on the
// first dial; the retry dials a clean replacement and the request succeeds
// transparently.
func TestMidFrameDropRecovered(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	dials := 0
	dial := func() (net.Conn, error) {
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		dials++
		if dials == 1 {
			// The length prefix is 4 bytes: cut the very first frame in
			// half, after the prefix but inside the JSON payload.
			return faultnet.Wrap(cliConn, faultnet.Options{Seed: 11, DropAfterBytes: 10}), nil
		}
		return cliConn, nil
	}
	cli := New(Options{Dial: dial, Retry: testRetry, Seed: 7})
	defer cli.Close()

	if err := cli.Connect(event.Context{User: "maria"}); err != nil {
		t.Fatalf("drop not recovered: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2 (initial + reconnect)", dials)
	}
}

// TestCorruptedStreamPoisonedAndRetried: a conn corrupting outbound bytes
// produces a server-side framing failure and a dead stream; the client
// poisons it and completes on a clean reconnect.
func TestCorruptedStreamPoisonedAndRetried(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	poisonBefore := counter("gis_client_conn_poisoned_total")
	dials := 0
	dial := func() (net.Conn, error) {
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		dials++
		if dials == 1 {
			return faultnet.Wrap(cliConn, faultnet.Options{Seed: 3, CorruptEveryN: 8}), nil
		}
		return cliConn, nil
	}
	cli := New(Options{Dial: dial, Timeout: time.Second, Retry: testRetry, Seed: 5})
	defer cli.Close()

	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatalf("corruption not recovered: %v", err)
	}
	if dials < 2 {
		t.Fatalf("dials = %d, want reconnect after corruption", dials)
	}
	if got := counter("gis_client_conn_poisoned_total"); got <= poisonBefore {
		t.Fatal("corrupted conn was not poisoned")
	}
}

// blackHole returns a conn whose peer reads requests forever but never
// answers — a stalled server.
func blackHole() net.Conn {
	srvConn, cliConn := net.Pipe()
	//vet:ignore testleak -- the copier exits when the test closes its end of the pipe
	go io.Copy(io.Discard, srvConn)
	return cliConn
}

// TestTimeoutPoisonsAndReconnects: a stalled server trips the per-request
// deadline; the late (never-arriving) response must not be awaited, the conn
// is poisoned, and the retry reaches a healthy server. The black hole never
// answers, so success with exactly one timeout counted proves the deadline
// fired; the 10 s guard turns a missing deadline into a failure, not a hang.
func TestTimeoutPoisonsAndReconnects(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()

	timeoutsBefore := counter("gis_client_request_timeouts_total")
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials == 1 {
			return blackHole(), nil
		}
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		return cliConn, nil
	}
	cli := New(Options{
		Dial:    dial,
		Timeout: 80 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
		Seed:    2,
	})
	defer cli.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := cli.GetSchema(event.Context{}, "phone_net")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("timeout not recovered: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request still waiting after 10s; deadline not applied")
	}
	if got := counter("gis_client_request_timeouts_total"); got != timeoutsBefore+1 {
		t.Fatalf("gis_client_request_timeouts_total = %d, want %d", got, timeoutsBefore+1)
	}
}

// TestCallMethodNeverRetried: the one non-idempotent verb must fail fast on
// transport errors instead of re-running arbitrary database code.
func TestCallMethodNeverRetried(t *testing.T) {
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		c := blackHole()
		return c, nil
	}
	cli := New(Options{
		Dial:    dial,
		Timeout: 50 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Seed:    4,
	})
	defer cli.Close()

	_, err := cli.CallMethod(1, "boom")
	if err == nil {
		t.Fatal("stalled CallMethod returned success")
	}
	if dials != 1 {
		t.Fatalf("CallMethod dialed %d times, want 1 (no retry)", dials)
	}
}

// TestIDMismatchPoisonsConnection: a response carrying the wrong ID proves
// the stream is desynchronized; the client must refuse to reuse the conn.
func TestIDMismatchPoisonsConnection(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	// A fake server that answers every request with a bogus ID.
	go func() {
		for {
			var req proto.Request
			if err := proto.ReadMessage(srvConn, &req); err != nil {
				return
			}
			proto.WriteMessage(srvConn, proto.Response{ID: req.ID + 1000})
		}
	}()
	cli := NewClient(cliConn)
	defer cli.Close()

	poisonBefore := counter("gis_client_conn_poisoned_total")
	err := cli.Connect(event.Context{})
	if err == nil || !strings.Contains(err.Error(), "response id") {
		t.Fatalf("mismatch error = %v", err)
	}
	if got := counter("gis_client_conn_poisoned_total"); got != poisonBefore+1 {
		t.Fatal("desynced conn was not poisoned")
	}
	// With no dial function the client cannot recover: the next request
	// reports the missing connection instead of reusing the poisoned one.
	if err := cli.Connect(event.Context{}); !errors.Is(err, errNotConnected) {
		t.Fatalf("poisoned conn reused: %v", err)
	}
}

// TestRemoteErrorsAreNotRetried: an error answer from the server is an
// application result; retrying it would only repeat the work.
func TestRemoteErrorsAreNotRetried(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()
	dials := 0
	dial := func() (net.Conn, error) {
		srvConn, cliConn := net.Pipe()
		go srv.ServeConn(srvConn)
		dials++
		return cliConn, nil
	}
	cli := New(Options{Dial: dial, Retry: testRetry, Seed: 6})
	defer cli.Close()

	retriesBefore := counter("gis_client_retries_total")
	if _, _, err := cli.GetSchema(event.Context{}, "ghost"); !errors.Is(err, proto.ErrRemote) {
		t.Fatalf("remote error = %v", err)
	}
	if dials != 1 {
		t.Fatalf("remote error triggered %d dials", dials)
	}
	if got := counter("gis_client_retries_total"); got != retriesBefore {
		t.Fatal("remote error was retried")
	}
}

// TestPartialWritesAreInvisible: a link that fragments every write must not
// disturb framing at all — no retries, no poisoning, correct payloads.
func TestPartialWritesAreInvisible(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	defer srv.Close()
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	fc := faultnet.Wrap(cliConn, faultnet.Options{Seed: 9, PartialWrites: true})
	cli := NewClient(fc)
	defer cli.Close()

	info, _, err := cli.GetSchema(event.Context{}, "phone_net")
	if err != nil {
		t.Fatalf("partial writes broke framing: %v", err)
	}
	if info.Name != "phone_net" || len(info.Classes) == 0 {
		t.Fatalf("schema over fragmented link = %+v", info)
	}
	if fc.Stats.PartialWrites.Load() == 0 {
		t.Fatal("harness injected no partial writes")
	}
}

// TestIdleDisconnectHealsTransparently: a server that disconnects idle
// clients (IdleTimeout) must not surface errors to a session that pauses
// between interactions, as exploratory users do.
func TestIdleDisconnectHealsTransparently(t *testing.T) {
	backend, _, _ := serverWorld(t)
	srv := server.New(backend)
	srv.IdleTimeout = 60 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	cli, err := DialOptions(l.Addr().String(), Options{Retry: testRetry, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatal(err)
	}
	//vet:ignore testleak -- sleeps past the server's idle deadline; the disconnect is time-driven with no observable event
	time.Sleep(200 * time.Millisecond) // server disconnects the idle conn
	if _, _, err := cli.GetSchema(event.Context{}, "phone_net"); err != nil {
		t.Fatalf("idle disconnect surfaced to the session: %v", err)
	}
}
