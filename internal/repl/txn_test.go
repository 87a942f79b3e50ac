package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geodb"
	"repro/internal/proto"
)

// Transaction-aware shipping tests: a multi-op transaction travels the ship
// stream as one WAL group, and the consistency bound a frame carries must
// never land inside a group — a replica exposing such a state would serve a
// torn transaction, violating prefix consistency.

func stationPair(name string, load int) []catalog.Value {
	return []catalog.Value{catalog.TextVal(name), catalog.IntVal(int64(load))}
}

// commitTxns drives n multi-op transactions (insert + follow-up update in
// one batch) through the database.
func commitTxns(t testing.TB, db *geodb.DB, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txn := db.Begin(testCtx)
		name := fmt.Sprintf("t%d", start+i)
		oid, err := txn.Insert("net", "Station", stationPair(name, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Update(oid, stationPair(name, start+i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShipFramesNeverSplitTxn attaches a raw protocol-level observer to the
// primary and audits every records frame: record LSNs stay contiguous, and
// the consistency bound (msg.LSN) only ever names a commit or checkpoint
// marker — never a page image inside a transaction's group. BatchRecords=1
// makes the framer cut as eagerly as it is allowed to, so any boundary the
// primary would mis-place becomes a frame cut this test sees. The history
// includes both pre-attach transactions (the seeded tail) and live ones.
func TestShipFramesNeverSplitTxn(t *testing.T) {
	db := newPrimaryDB(t)
	commitTxns(t, db, 0, 10) // pre-primary history: seeded from the log file
	p := newTestPrimary(t, db, PrimaryOptions{BatchRecords: 1})
	commitTxns(t, db, 10, 10) // live history: observed via the WAL hooks
	target := uint64(p.Durable())

	cli, srv := net.Pipe()
	defer cli.Close()
	//vet:ignore testleak -- ServeConn exits when the client end closes
	go p.ServeConn(srv)
	if err := proto.WriteMessage(cli, &msg{Kind: kindHello, RunID: p.RunID()}); err != nil {
		t.Fatal(err)
	}
	var helloOK msg
	if err := proto.ReadMessage(cli, &helloOK); err != nil {
		t.Fatal(err)
	}
	if helloOK.Kind != kindHelloOK {
		t.Fatalf("handshake answered %q, want hello_ok", helloOK.Kind)
	}

	markers := map[uint64]bool{}
	var prevLSN, prevBound uint64
	for prevLSN < target {
		var m msg
		if err := proto.ReadMessage(cli, &m); err != nil {
			t.Fatalf("read frame: %v", err)
		}
		switch m.Kind {
		case kindPing:
			continue
		case kindSnap, kindSnapEnd:
			t.Fatalf("primary snapshotted a from-zero stream it can serve from its tail")
		case kindRecords:
		default:
			t.Fatalf("unexpected frame kind %q", m.Kind)
		}
		for _, rec := range m.Recs {
			if !rec.verify() {
				t.Fatalf("record %d failed CRC on the wire", rec.LSN)
			}
			if rec.LSN != prevLSN+1 {
				t.Fatalf("record %d follows %d: ship stream not contiguous", rec.LSN, prevLSN)
			}
			prevLSN = rec.LSN
			if rec.Checkpoint || rec.Commit {
				markers[rec.LSN] = true
			}
		}
		if m.LSN != 0 {
			if !markers[m.LSN] {
				t.Fatalf("frame consistency bound %d is not a group marker: a replica serving there would expose a torn transaction", m.LSN)
			}
			if m.LSN < prevBound {
				t.Fatalf("consistency bound went backwards: %d after %d", m.LSN, prevBound)
			}
			prevBound = m.LSN
		}
	}
	if prevBound == 0 {
		t.Fatal("stream finished without ever advancing the consistency bound")
	}
}

// TestReplicaPrefixConsistencyConcurrentWriters: 8 concurrent writers each
// keep their own pair of rows equal, every change committed as one
// transaction. A replica polled throughout must only ever serve states in
// which every pair is equal (no transaction ever shows half-applied) and
// each writer's version never goes backwards (each served state is a prefix
// of the primary's acked history, not a fork).
func TestReplicaPrefixConsistencyConcurrentWriters(t *testing.T) {
	const writers = 8
	const txnsPer = 40
	db := newPrimaryDB(t)
	var pairs [writers][2]catalog.OID
	for w := 0; w < writers; w++ {
		for s := 0; s < 2; s++ {
			oid, err := db.Insert(testCtx, "net", "Station",
				stationPair(fmt.Sprintf("w%d-%d", w, s), 0))
			if err != nil {
				t.Fatal(err)
			}
			pairs[w][s] = oid
		}
	}
	p := newTestPrimary(t, db, PrimaryOptions{BatchRecords: 4})
	r := newTestReplica(t, ReplicaOptions{Dial: pipeDialer(p)})
	waitConverged(t, r, p)

	var running atomic.Int32
	running.Store(writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			for v := 1; v <= txnsPer; v++ {
				txn := db.Begin(testCtx)
				if err := txn.Update(pairs[w][0], stationPair(fmt.Sprintf("w%d-0", w), v)); err != nil {
					errs[w] = err
					return
				}
				if err := txn.Update(pairs[w][1], stationPair(fmt.Sprintf("w%d-1", w), v)); err != nil {
					errs[w] = err
					return
				}
				if err := txn.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}

	// Poll the replica while the storm runs. Unavailable reads (replica
	// briefly out of rotation) are skipped; every served state is audited.
	lastSeen := [writers]int{}
	polls := 0
	for running.Load() > 0 {
		stations, err := r.SelectWhere(testCtx, "net", "Station", nil)
		if err != nil {
			continue
		}
		polls++
		loads := map[catalog.OID]int{}
		for _, in := range stations {
			if v, ok := in.Get("load"); ok {
				loads[in.OID] = int(v.Int)
			}
		}
		for w := 0; w < writers; w++ {
			lv, lok := loads[pairs[w][0]]
			rv, rok := loads[pairs[w][1]]
			if !lok || !rok {
				t.Fatalf("replica state lost writer %d's rows", w)
			}
			if lv != rv {
				t.Fatalf("replica served a torn transaction: writer %d pair at (%d, %d)", w, lv, rv)
			}
			if lv < lastSeen[w] {
				t.Fatalf("replica state went backwards for writer %d: %d after %d", w, lv, lastSeen[w])
			}
			lastSeen[w] = lv
		}
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	t.Logf("audited %d served states during the write storm", polls)

	waitConverged(t, r, p)
	stations, err := r.SelectWhere(testCtx, "net", "Station", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range stations {
		if v, ok := in.Get("load"); !ok || v.Int != txnsPer {
			t.Fatalf("converged replica: oid %d at load %v, want %d", in.OID, v.Int, txnsPer)
		}
	}
}
