package geodb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/storage"
)

// Transaction semantics tests: atomic visibility, read-your-writes, abort,
// per-op veto, snapshot isolation against concurrent commits, and
// concurrent committers under the race detector.

func defineStations(t testing.TB, db *DB) {
	t.Helper()
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
}

func stationVals(name string, load int) []catalog.Value {
	return []catalog.Value{catalog.TextVal(name), catalog.IntVal(int64(load))}
}

func stationLoad(t *testing.T, in Instance) int {
	t.Helper()
	v, ok := in.Get("load")
	if !ok {
		t.Fatalf("oid %d has no load attribute", in.OID)
	}
	return int(v.Int)
}

func TestTxnAtomicVisibility(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	base, err := db.Insert(testCtx, "net", "Station", stationVals("base", 1))
	if err != nil {
		t.Fatal(err)
	}

	txn := db.Begin(testCtx)
	a, err := txn.Insert("net", "Station", stationVals("a", 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := txn.Insert("net", "Station", stationVals("b", 20))
	if err != nil {
		t.Fatal(err)
	}
	// Read-your-writes: update an OID this transaction inserted, and one
	// that is committed.
	if err := txn.Update(a, stationVals("a", 11)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(base, stationVals("base", 2)); err != nil {
		t.Fatal(err)
	}
	// Delete-then-update inside the transaction must fail like a missing row.
	if err := txn.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(b, stationVals("b", 21)); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("update of txn-deleted oid: %v, want ErrNoInstance", err)
	}

	// Nothing is visible before Commit: no dirty reads.
	if n := db.Count("net", "Station"); n != 1 {
		t.Fatalf("mid-txn count %d, want 1 (buffered ops leaked)", n)
	}
	if in, err := db.GetValue(testCtx, base); err != nil || stationLoad(t, in) != 1 {
		t.Fatalf("mid-txn base = (%v, %v), want committed load 1", in, err)
	}

	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.Count("net", "Station"); n != 2 {
		t.Fatalf("post-commit count %d, want 2", n)
	}
	in, err := db.GetValue(testCtx, a)
	if err != nil || stationLoad(t, in) != 11 {
		t.Fatalf("post-commit a = (%v, %v), want load 11", in, err)
	}
	in, err = db.GetValue(testCtx, base)
	if err != nil || stationLoad(t, in) != 2 {
		t.Fatalf("post-commit base = (%v, %v), want load 2", in, err)
	}
	if _, err := db.GetValue(testCtx, b); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("b inserted and deleted in one txn still present: %v", err)
	}

	// A finished transaction rejects everything.
	if _, err := txn.Insert("net", "Station", stationVals("x", 0)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v, want ErrTxnDone", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v, want ErrTxnDone", err)
	}
}

func TestTxnAbort(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	base, err := db.Insert(testCtx, "net", "Station", stationVals("base", 1))
	if err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(testCtx)
	if _, err := txn.Insert("net", "Station", stationVals("a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(base, stationVals("base", 99)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(base); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	if n := db.Count("net", "Station"); n != 1 {
		t.Fatalf("post-abort count %d, want 1", n)
	}
	if in, err := db.GetValue(testCtx, base); err != nil || stationLoad(t, in) != 1 {
		t.Fatalf("post-abort base = (%v, %v), want untouched load 1", in, err)
	}
	if err := txn.Update(base, stationVals("base", 2)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("update after abort: %v, want ErrTxnDone", err)
	}
}

// TestTxnVetoRejectsOpOnly: a constraint veto at buffer time rejects that
// op, not the transaction — the rest of the batch still commits.
func TestTxnVetoRejectsOpOnly(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	db.Bus().Subscribe(event.HandlerFunc(func(e event.Event) error {
		if e.Kind == event.PreInsert && len(e.New) > 0 && strings.HasPrefix(e.New[0].Text, "forbidden") {
			return fmt.Errorf("no forbidden stations")
		}
		return nil
	}))
	txn := db.Begin(testCtx)
	if _, err := txn.Insert("net", "Station", stationVals("ok", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("net", "Station", stationVals("forbidden", 2)); !errors.Is(err, ErrVetoed) {
		t.Fatalf("vetoed insert: %v, want ErrVetoed", err)
	}
	if got := txn.Len(); got != 1 {
		t.Fatalf("txn buffered %d ops after veto, want 1", got)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.Count("net", "Station"); n != 1 {
		t.Fatalf("committed %d stations, want 1 (the unvetoed op)", n)
	}
}

// TestTxnSnapshotIsolation: a snapshot opened before a transaction commits
// keeps serving the pre-commit state — repeatable reads across the commit —
// while a snapshot opened after sees the whole batch.
func TestTxnSnapshotIsolation(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	base, err := db.Insert(testCtx, "net", "Station", stationVals("base", 1))
	if err != nil {
		t.Fatal(err)
	}

	before := db.BeginSnapshot()
	defer before.Close()

	txn := db.Begin(testCtx)
	a, err := txn.Insert("net", "Station", stationVals("a", 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(base, stationVals("base", 2)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old snapshot must not see any of the batch: not the insert, not
	// the update. (No dirty reads earlier, no non-repeatable reads now.)
	if n, err := before.Count("net", "Station"); err != nil || n != 1 {
		t.Fatalf("pre-commit snapshot count = (%d, %v), want 1", n, err)
	}
	in, err := before.Get(base)
	if err != nil || stationLoad(t, in) != 1 {
		t.Fatalf("pre-commit snapshot base = (%v, %v), want load 1", in, err)
	}
	if _, err := before.Get(a); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("pre-commit snapshot sees txn insert: %v", err)
	}

	after := db.BeginSnapshot()
	defer after.Close()
	if n, err := after.Count("net", "Station"); err != nil || n != 2 {
		t.Fatalf("post-commit snapshot count = (%d, %v), want 2", n, err)
	}
	in, err = after.Get(base)
	if err != nil || stationLoad(t, in) != 2 {
		t.Fatalf("post-commit snapshot base = (%v, %v), want load 2", in, err)
	}
}

// TestTxnSnapshotNeverTearsBatch: under a storm of concurrent multi-op
// transactions — each keeping two rows' loads equal — every snapshot scan
// observes the invariant. A scan that ever sees the rows unequal caught a
// transaction half-applied, a torn read the snapshot layer must prevent.
func TestTxnSnapshotNeverTearsBatch(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	left, err := db.Insert(testCtx, "net", "Station", stationVals("left", 0))
	if err != nil {
		t.Fatal(err)
	}
	right, err := db.Insert(testCtx, "net", "Station", stationVals("right", 0))
	if err != nil {
		t.Fatal(err)
	}

	const commits = 200
	done := make(chan error, 1)
	go func() {
		for v := 1; v <= commits; v++ {
			txn := db.Begin(testCtx)
			if err := txn.Update(left, stationVals("left", v)); err != nil {
				done <- err
				return
			}
			if err := txn.Update(right, stationVals("right", v)); err != nil {
				done <- err
				return
			}
			if err := txn.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Final state: both rows at the last committed version.
			snap := db.BeginSnapshot()
			l, err := snap.Get(left)
			if err != nil {
				t.Fatal(err)
			}
			r, err := snap.Get(right)
			if err != nil {
				t.Fatal(err)
			}
			snap.Close()
			if stationLoad(t, l) != commits || stationLoad(t, r) != commits {
				t.Fatalf("final loads (%d, %d), want (%d, %d)",
					stationLoad(t, l), stationLoad(t, r), commits, commits)
			}
			return
		default:
		}
		snap := db.BeginSnapshot()
		l, lerr := snap.Get(left)
		r, rerr := snap.Get(right)
		snap.Close()
		if lerr != nil || rerr != nil {
			t.Fatalf("snapshot read: (%v, %v)", lerr, rerr)
		}
		if lv, rv := stationLoad(t, l), stationLoad(t, r); lv != rv {
			t.Fatalf("snapshot tore a transaction: left=%d right=%d", lv, rv)
		}
	}
}

// TestTxnConcurrentCommitters: W goroutines each commit M transactions
// (insert a row, then update it and a shared row in a second transaction).
// Every ack must be present afterwards with the exact final values — the
// geodb-level statement of the group-commit linearizability oracle.
func TestTxnConcurrentCommitters(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)

	const writers = 8
	const txnsPer = 12
	oids := make([][]catalog.OID, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < txnsPer; j++ {
				txn := db.Begin(testCtx)
				name := fmt.Sprintf("w%d-%d", i, j)
				oid, err := txn.Insert("net", "Station", stationVals(name, 0))
				if err != nil {
					errs[i] = err
					return
				}
				if err := txn.Update(oid, stationVals(name, 100*i+j)); err != nil {
					errs[i] = err
					return
				}
				if err := txn.Commit(); err != nil {
					errs[i] = err
					return
				}
				oids[i] = append(oids[i], oid)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	if n := db.Count("net", "Station"); n != writers*txnsPer {
		t.Fatalf("count %d, want %d", n, writers*txnsPer)
	}
	for i := 0; i < writers; i++ {
		for j, oid := range oids[i] {
			in, err := db.GetValue(testCtx, oid)
			if err != nil {
				t.Fatalf("writer %d txn %d (oid %d): %v", i, j, oid, err)
			}
			if got := stationLoad(t, in); got != 100*i+j {
				t.Fatalf("writer %d txn %d: load %d, want %d", i, j, got, 100*i+j)
			}
		}
	}
}

// TestTxnFailedCommitChangesNothing: a commit whose update lost its target
// to another committer fails before applying anything. The insert buffered
// ahead of the update must not become visible, and must not reach the log
// with the next commit's group and survive a reopen.
func TestTxnFailedCommitChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "geo.db")
	db := mustOpen(t, Options{Path: path})
	defineStations(t, db)
	x, err := db.Insert(testCtx, "net", "Station", stationVals("x", 1))
	if err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(testCtx)
	y, err := txn.Insert("net", "Station", stationVals("y", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(x, stationVals("x", 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(testCtx, x); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrNoInstance) || !strings.Contains(err.Error(), "txn op 1") {
		t.Fatalf("commit over a deleted target: %v", err)
	}
	if _, err := db.GetValue(testCtx, y); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("insert of a failed commit is visible: %v", err)
	}
	z, err := db.Insert(testCtx, "net", "Station", stationVals("z", 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, Options{Path: path})
	defer db.Close()
	if _, err := db.GetValue(testCtx, y); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("insert of a failed commit survived a reopen: %v", err)
	}
	if n := db.Count("net", "Station"); n != 1 {
		t.Fatalf("stations after reopen = %d, want only z", n)
	}
	if _, err := db.GetValue(testCtx, z); err != nil {
		t.Fatal(err)
	}
}

// TestTxnRefusesOversizeRecordAtBuffer: a record no page can hold is refused
// when the op is buffered, so the rest of the batch still commits whole.
func TestTxnRefusesOversizeRecordAtBuffer(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	defineStations(t, db)
	x, err := db.Insert(testCtx, "net", "Station", stationVals("x", 1))
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("#", storage.MaxRecordSize)
	txn := db.Begin(testCtx)
	a, err := txn.Insert("net", "Station", stationVals("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("net", "Station", stationVals(huge, 3)); !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("oversize insert buffered: %v", err)
	}
	if err := txn.Update(x, stationVals(huge, 4)); !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("oversize update buffered: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := db.Count("net", "Station"); n != 2 {
		t.Fatalf("stations = %d, want x and a", n)
	}
	if _, err := db.GetValue(testCtx, a); err != nil {
		t.Fatal(err)
	}
}
