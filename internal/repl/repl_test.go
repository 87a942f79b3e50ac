package repl

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/proto"
	"repro/internal/storage"
)

var testCtx = event.Context{User: "tester", Application: "repl_test"}

// newPrimaryDB opens a WAL-backed in-memory database with the test schema.
func newPrimaryDB(t testing.TB) *geodb.DB {
	t.Helper()
	db, err := geodb.Open(geodb.Options{
		Name:            "GEO",
		Pager:           storage.NewMemPager(),
		WALFile:         storage.NewMemLogFile(),
		CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSchema("net"); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("net", catalog.Class{
		Name: "Station",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("load", catalog.Scalar(catalog.KindInteger)),
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertN(t testing.TB, db *geodb.DB, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := db.Insert(testCtx, "net", "Station", []catalog.Value{
			catalog.TextVal(fmt.Sprintf("s%d", start+i)),
			catalog.IntVal(int64(start + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func newTestPrimary(t testing.TB, db *geodb.DB, opts PrimaryOptions) *Primary {
	t.Helper()
	if opts.PingEvery == 0 {
		opts.PingEvery = 50 * time.Millisecond
	}
	p, err := NewPrimary(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// pipeDialer returns a dial func that hands the primary one end of a fresh
// pipe per call, and a way to reach the conns it handed out.
func pipeDialer(p *Primary) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		cli, srv := net.Pipe()
		//vet:ignore testleak -- ServeConn exits when the dialer's client end closes
		go p.ServeConn(srv)
		return cli, nil
	}
}

func newTestReplica(t testing.TB, opts ReplicaOptions) *Replica {
	t.Helper()
	if opts.ReadTimeout == 0 {
		opts.ReadTimeout = time.Second
	}
	if opts.ReconnectDelay == 0 {
		opts.ReconnectDelay = 10 * time.Millisecond
	}
	r := NewReplica(opts)
	t.Cleanup(func() { r.Close() })
	r.Start()
	return r
}

// waitConverged waits until the replica is healthy and has applied the
// primary's full durable history.
func waitConverged(t testing.TB, r *Replica, p *Primary) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := r.Status()
		if st.Healthy && st.Applied == uint64(p.Durable()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never converged: replica=%+v primary durable=%d", r.Status(), p.Durable())
}

// replicaCount reads the class extension size through the replica's public
// Backend face; -1 while the replica is unavailable. Stations have no
// geometry, so a Get_Class reply draws none: the extension comes from an
// analysis-mode select.
func replicaCount(r *Replica) int {
	stations, err := r.SelectWhere(testCtx, "net", "Station", nil)
	if err != nil {
		return -1
	}
	return len(stations)
}

// TestReplicaConvergesAndServes: the basic ship → apply → serve loop. A
// replica attached from LSN 0 follows inserts, serves the retrieval verbs
// with the primary's data, and refuses mutations.
func TestReplicaConvergesAndServes(t *testing.T) {
	db := newPrimaryDB(t)
	insertN(t, db, 0, 5)
	p := newTestPrimary(t, db, PrimaryOptions{})
	r := newTestReplica(t, ReplicaOptions{Dial: pipeDialer(p)})
	waitConverged(t, r, p)

	insertN(t, db, 5, 15)
	waitConverged(t, r, p)

	if n := replicaCount(r); n != 20 {
		t.Fatalf("replica serves %d instances, want 20", n)
	}
	// GetValue sees a specific instance.
	if _, _, err := r.GetClass(testCtx, "net", "Station"); err != nil {
		t.Fatal(err)
	}
	stations, err := r.SelectWhere(testCtx, "net", "Station", nil)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := r.GetValue(testCtx, stations[0].OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Values) == 0 {
		t.Fatal("empty instance from replica")
	}
	// Mutations are refused and point at the primary.
	if _, err := r.CallMethod(stations[0].OID, "boom"); err == nil {
		t.Fatal("replica accepted call_method")
	}

	st := r.Status()
	if st.Role != "replica" || !st.Connected || st.Lag != 0 {
		t.Fatalf("bad replica status %+v", st)
	}
	ps := p.Status()
	if ps.Role != "primary" || len(ps.Replicas) != 1 {
		t.Fatalf("bad primary status %+v", ps)
	}
	if r.Snapshots() > 1 {
		t.Fatalf("replica took %d snapshots, want at most 1", r.Snapshots())
	}
}

// TestSnapshotCatchup: a replica attaching after the primary's tail buffer
// has scrolled out must be caught up with a page snapshot, then follow the
// live stream.
func TestSnapshotCatchup(t *testing.T) {
	db := newPrimaryDB(t)
	insertN(t, db, 0, 40)
	p := newTestPrimary(t, db, PrimaryOptions{BufferRecords: 4})
	r := newTestReplica(t, ReplicaOptions{Dial: pipeDialer(p)})
	waitConverged(t, r, p)
	if r.Snapshots() == 0 {
		t.Fatal("cold replica behind the buffer converged without a snapshot")
	}
	if n := replicaCount(r); n != 40 {
		t.Fatalf("replica serves %d instances, want 40", n)
	}
	// And the live stream still flows after the snapshot.
	insertN(t, db, 40, 3)
	waitConverged(t, r, p)
	if n := replicaCount(r); n != 43 {
		t.Fatalf("replica serves %d instances after snapshot+stream, want 43", n)
	}
}

// TestResumeWithoutSnapshot: a replica that loses its connection resumes
// from its applied LSN over the log stream — no snapshot — as long as the
// primary's buffer still holds the records.
func TestResumeWithoutSnapshot(t *testing.T) {
	db := newPrimaryDB(t)
	p := newTestPrimary(t, db, PrimaryOptions{})

	var mu sync.Mutex
	var conns []net.Conn
	dial := pipeDialer(p)
	r := newTestReplica(t, ReplicaOptions{Dial: func() (net.Conn, error) {
		c, err := dial()
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}})
	insertN(t, db, 0, 10)
	waitConverged(t, r, p)
	snaps := r.Snapshots()

	// Sever the live connection; the replica reconnects and catches up from
	// the log, not a snapshot.
	mu.Lock()
	conns[len(conns)-1].Close()
	mu.Unlock()
	insertN(t, db, 10, 10)
	waitConverged(t, r, p)
	if n := replicaCount(r); n != 20 {
		t.Fatalf("replica serves %d instances after reconnect, want 20", n)
	}
	if r.Snapshots() != snaps {
		t.Fatalf("reconnect within the buffer took a snapshot (%d → %d)", snaps, r.Snapshots())
	}
	if r.Reconnects() == 0 {
		t.Fatal("severed connection not counted as a reconnect")
	}
}

// scriptedPrimary is a hand-rolled ship-stream peer: tests drive the wire
// protocol directly to create conditions (lag, silence) a healthy primary
// would not produce.
type scriptedPrimary struct {
	t    *testing.T
	conn net.Conn
}

func (s *scriptedPrimary) expectHello() msg {
	var m msg
	if err := proto.ReadMessage(s.conn, &m); err != nil {
		s.t.Fatalf("scripted primary: reading hello: %v", err)
	}
	if m.Kind != kindHello {
		s.t.Fatalf("scripted primary: got %q, want hello", m.Kind)
	}
	return m
}

func (s *scriptedPrimary) send(m *msg) {
	if err := proto.WriteMessage(s.conn, m); err != nil {
		s.t.Fatalf("scripted primary: write: %v", err)
	}
}

// drain discards the replica's acks: net.Pipe writes are synchronous, so
// without a reader the replica would block sending them.
func (s *scriptedPrimary) drain() {
	//vet:ignore testleak -- the ack reader exits when the primary closes the conn
	go func() {
		for {
			var m msg
			if err := proto.ReadMessage(s.conn, &m); err != nil {
				return
			}
		}
	}()
}

// page returns a valid snapshot page frame payload.
func testPage(id uint32, fill byte) wirePage {
	data := make([]byte, storage.PageSize)
	for i := range data {
		data[i] = fill
	}
	return wirePage{ID: id, Data: data, CRC: shipCRC(uint64(id), data)}
}

func testRecord(lsn uint64, page uint32, fill byte) wireRecord {
	data := make([]byte, storage.PageSize)
	for i := range data {
		data[i] = fill
	}
	return wireRecord{LSN: lsn, Page: page, Data: data, CRC: shipCRC(lsn, data)}
}

// TestMaxLagPullsReplicaOutOfRotation: a replica that has fallen further
// behind than MaxLag reports unhealthy and refuses reads with the
// ReplicaUnavailableMsg sentinel; catching back up restores service.
func TestMaxLagPullsReplicaOutOfRotation(t *testing.T) {
	cli, srv := net.Pipe()
	dials := 0
	r := newTestReplica(t, ReplicaOptions{
		MaxLag:      10,
		ReadTimeout: 5 * time.Second,
		Dial: func() (net.Conn, error) {
			dials++
			if dials > 1 {
				return nil, fmt.Errorf("no more conns")
			}
			return cli, nil
		},
	})
	sp := &scriptedPrimary{t: t, conn: srv}
	sp.expectHello()
	sp.drain()
	sp.send(&msg{Kind: kindHelloOK, RunID: 7, Durable: 1})
	// Install a snapshot at LSN 1 so the replica has something to serve.
	sp.send(&msg{Kind: kindSnap, Pages: []wirePage{testPage(0, 0xAB)}})
	sp.send(&msg{Kind: kindSnapEnd, LSN: 1, Durable: 1})

	waitStatus := func(want func(*proto.ReplStatus) bool, desc string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if want(r.Status()) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("replica never reached state %q: %+v", desc, r.Status())
	}
	waitStatus(func(st *proto.ReplStatus) bool { return st.Healthy }, "healthy after snapshot")

	// The primary's durable head races ahead: lag 99 > MaxLag 10.
	sp.send(&msg{Kind: kindPing, Durable: 100})
	waitStatus(func(st *proto.ReplStatus) bool { return !st.Healthy && st.Lag == 99 }, "unhealthy at lag 99")
	if err := r.Connect(testCtx); err == nil {
		t.Fatal("lagging replica served a read")
	} else if !isUnavailable(err) {
		t.Fatalf("lagging replica failed with %v, want %q sentinel", err, proto.ReplicaUnavailableMsg)
	}

	// Stream the missing records; health returns when lag ≤ MaxLag.
	recs := make([]wireRecord, 0, 99)
	for lsn := uint64(2); lsn <= 100; lsn++ {
		recs = append(recs, testRecord(lsn, 0, byte(lsn)))
	}
	sp.send(&msg{Kind: kindRecords, Recs: recs, LSN: 100, Durable: 100})
	waitStatus(func(st *proto.ReplStatus) bool { return st.Healthy && st.Lag == 0 }, "healthy after catch-up")
}

func isUnavailable(err error) bool {
	return err != nil && len(err.Error()) >= len(proto.ReplicaUnavailableMsg) &&
		err.Error()[:len(proto.ReplicaUnavailableMsg)] == proto.ReplicaUnavailableMsg
}

// TestGapDetection: a stream that skips an LSN is refused before any record
// is applied, counted as a ship gap, and the replica reconnects.
func TestGapDetection(t *testing.T) {
	var mu sync.Mutex
	dials := 0
	connCh := make(chan net.Conn, 4)
	r := newTestReplica(t, ReplicaOptions{
		MaxLag:      -1,
		ReadTimeout: 5 * time.Second,
		Dial: func() (net.Conn, error) {
			mu.Lock()
			dials++
			mu.Unlock()
			cli, srv := net.Pipe()
			connCh <- srv
			return cli, nil
		},
	})
	sp := &scriptedPrimary{t: t, conn: <-connCh}
	sp.expectHello()
	sp.drain()
	sp.send(&msg{Kind: kindHelloOK, RunID: 7, Durable: 2})
	sp.send(&msg{Kind: kindSnapEnd, LSN: 2, Durable: 2}) // empty snapshot at LSN 2
	// LSN 4 skips 3: the replica must refuse and resync.
	sp.send(&msg{Kind: kindRecords, Recs: []wireRecord{testRecord(4, 0, 1)}, LSN: 4, Durable: 4})

	// A second dial proves the replica tore the stream down.
	sp2 := &scriptedPrimary{t: t, conn: <-connCh}
	hello := sp2.expectHello()
	if hello.From != 2 {
		t.Fatalf("replica resumed from %d after gap, want 2 (nothing applied)", hello.From)
	}
	if st := r.Status(); st.Applied != 2 {
		t.Fatalf("gap frame partially applied: %+v", st)
	}
}

// TestPrimaryRestartNewLineage: when the primary dies and a NEW incarnation
// (fresh database, fresh run ID) takes over its address, the replica must
// discard its old-lineage state — both the apply log position and the state
// it serves — and converge onto the new primary's history. Regression: the
// primary treats a foreign hello as a cold replica and streams from zero,
// so a replica that clings to its old LSNs would refuse the stream forever.
func TestPrimaryRestartNewLineage(t *testing.T) {
	dbA := newPrimaryDB(t)
	insertN(t, dbA, 0, 10)
	primA := newTestPrimary(t, dbA, PrimaryOptions{})

	// The dialer's target can be swapped mid-test, like a restarted daemon
	// re-binding the same -repl-listen address.
	var mu sync.Mutex
	target := primA
	dial := func() (net.Conn, error) {
		mu.Lock()
		p := target
		mu.Unlock()
		cli, srv := net.Pipe()
		go p.ServeConn(srv)
		return cli, nil
	}

	rep := newTestReplica(t, ReplicaOptions{Dial: dial})
	waitConverged(t, rep, primA)
	oldRun := rep.Status().RunID
	if got := replicaCount(rep); got != 10 {
		t.Fatalf("replica serves %d instances before restart, want 10", got)
	}

	// Primary restarts as a different incarnation with different contents.
	primA.Close()
	dbB := newPrimaryDB(t)
	insertN(t, dbB, 100, 4)
	primB := newTestPrimary(t, dbB, PrimaryOptions{})
	mu.Lock()
	target = primB
	mu.Unlock()

	waitConverged(t, rep, primB)
	st := rep.Status()
	if st.RunID == oldRun {
		t.Fatalf("replica still on old lineage run %d after primary restart", oldRun)
	}
	if got := replicaCount(rep); got != 4 {
		t.Fatalf("replica serves %d instances after lineage switch, want the new primary's 4", got)
	}
}
