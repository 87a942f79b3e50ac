package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// pageWith returns an initialized page holding one record with the payload.
func pageWith(t *testing.T, payload string) *Page {
	t.Helper()
	var p Page
	p.InitPage()
	if _, err := p.InsertRecord([]byte(payload)); err != nil {
		t.Fatalf("insert record: %v", err)
	}
	return &p
}

func TestWALAppendAndReplay(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	images := map[PageID]*Page{}
	for i := 0; i < 5; i++ {
		id := PageID(i % 3) // later images of a page must win
		p := pageWith(t, fmt.Sprintf("page-%d-gen-%d", id, i))
		if _, err := w.AppendPage(id, p); err != nil {
			t.Fatalf("append: %v", err)
		}
		images[id] = p
	}
	if _, err := w.EndGroup(); err != nil {
		t.Fatalf("end group: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// Reopen and replay into a fresh pager, as Open would after a crash.
	w2, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pager := NewMemPager()
	n, err := w2.ReplayInto(pager)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 5 {
		t.Fatalf("replayed %d records, want 5", n)
	}
	if w2.Replayed() != 5 {
		t.Fatalf("Replayed() = %d, want 5", w2.Replayed())
	}
	for id, want := range images {
		var got Page
		if err := pager.ReadPage(id, &got); err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		if !bytes.Equal(got[:], want[:]) {
			t.Fatalf("page %d: replay did not produce the last logged image", id)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendPage(PageID(i), pageWith(t, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, err := w.EndGroup(); err != nil {
		t.Fatalf("end group: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	goodSize, err := lf.Size()
	if err != nil {
		t.Fatalf("size: %v", err)
	}

	// A crash mid-append leaves a torn record: a valid-looking prefix of a
	// fifth record whose bytes end early.
	torn := encodeRecord(17, recPageImage, make([]byte, 4+PageSize))
	if _, err := lf.WriteAt(torn[:len(torn)/3], goodSize); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}

	w2, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	pager := NewMemPager()
	n, err := w2.ReplayInto(pager)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", n)
	}
	if size, _ := lf.Size(); size != goodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d", size, goodSize)
	}

	// Appending after truncation must produce a log that scans cleanly.
	if _, err := w2.AppendPage(9, pageWith(t, "after-tear")); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	recs, valid := scanWAL(lf.Bytes())
	if len(recs) != 5 { // 3 images + group marker + the post-tear image
		t.Fatalf("scan found %d records, want 5", len(recs))
	}
	if int64(valid) != w2.Size() {
		t.Fatalf("scan valid=%d, wal size=%d", valid, w2.Size())
	}
}

func TestWALCorruptMiddleStopsScan(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendPage(PageID(i), pageWith(t, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	data := lf.Bytes()
	// Flip one payload bit of the second record.
	recLen := walHeaderSize + 4 + PageSize
	data[recLen+walHeaderSize+100] ^= 0x40
	recs, valid := scanWAL(data)
	if len(recs) != 1 {
		t.Fatalf("scan past corruption: got %d records, want 1", len(recs))
	}
	if valid != recLen {
		t.Fatalf("valid=%d, want %d", valid, recLen)
	}
}

// TestWALCommitAlwaysDurable: every Commit that returns has made the log
// durable through its last append.
func TestWALCommitAlwaysDurable(t *testing.T) {
	lf := NewMemLogFile()
	crash := &Crasher{} // count-only: every WriteAt/Sync/Truncate is a point
	cf := NewCrashLogFile(lf, crash)
	w, err := OpenWAL(cf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	before := crash.Points()
	for i := 0; i < 8; i++ {
		if _, err := w.AppendPage(PageID(i), pageWith(t, "x")); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if w.SyncedLSN() != LSN(i+1) {
			t.Fatalf("commit %d acknowledged at synced LSN %d, want %d", i, w.SyncedLSN(), i+1)
		}
	}
	// A lone committer gets no coalescing: 8 writes + 8 syncs = 16 IO points.
	if got := crash.Points() - before; got != 16 {
		t.Fatalf("8 serial commits cost %d IO points, want 16 (8 writes + 8 syncs)", got)
	}
}

// TestWALCommitCoversGroupAfterEvictionSync is the regression test for a
// durability hole of the removed batched-sync option: an eviction-forced
// SyncTo mid-group reset the batch counter, so the Commit that closed the
// group could acknowledge without its tail records — marker included — ever
// being synced. The invariant: acknowledged ⇒ the whole group is durable.
func TestWALCommitCoversGroupAfterEvictionSync(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	first, err := w.AppendPage(1, pageWith(t, "a"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	// An eviction writes page 1 back: the WAL-before-data gate syncs its image.
	if err := w.SyncTo(first); err != nil {
		t.Fatalf("syncTo: %v", err)
	}
	if _, err := w.AppendPage(2, pageWith(t, "b")); err != nil {
		t.Fatalf("append: %v", err)
	}
	marker, err := w.EndGroup()
	if err != nil {
		t.Fatalf("end group: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if w.SyncedLSN() < marker {
		t.Fatalf("commit acknowledged with synced LSN %d < group marker %d: the group is not durable", w.SyncedLSN(), marker)
	}
	if w.Boundary() != marker {
		t.Fatalf("boundary %d after acknowledged group, want %d", w.Boundary(), marker)
	}
}

func TestWALCheckpointTruncatesAndKeepsLSNsMonotonic(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.AppendPage(PageID(i), pageWith(t, "x")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	bigSize := w.Size()
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if w.Size() >= bigSize {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", bigSize, w.Size())
	}
	// Replay after checkpoint applies nothing: the data file owns it all.
	pager := NewMemPager()
	w2, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n, err := w2.ReplayInto(pager); err != nil || n != 0 {
		t.Fatalf("replay after checkpoint: n=%d err=%v, want 0 records", n, err)
	}
	// Post-checkpoint appends continue the LSN sequence past the marker.
	lsn, err := w.AppendPage(7, pageWith(t, "y"))
	if err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	if lsn <= 5 { // 4 images + 1 checkpoint marker
		t.Fatalf("LSN went backwards across checkpoint: %d", lsn)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	recs, _ := scanWAL(lf.Bytes())
	var prev LSN
	for _, r := range recs {
		if r.lsn <= prev {
			t.Fatalf("non-monotonic LSN %d after %d", r.lsn, prev)
		}
		prev = r.lsn
	}
}

func TestWALFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	lf, err := OpenLogFile(path)
	if err != nil {
		t.Fatalf("open log file: %v", err)
	}
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	want := pageWith(t, "on-disk")
	if _, err := w.AppendPage(3, want); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil { // Close syncs
		t.Fatalf("close: %v", err)
	}

	lf2, err := OpenLogFile(path)
	if err != nil {
		t.Fatalf("reopen log file: %v", err)
	}
	w2, err := OpenWAL(lf2, WALOptions{})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	pager := NewMemPager()
	if n, err := w2.ReplayInto(pager); err != nil || n != 1 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	var got Page
	if err := pager.ReadPage(3, &got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got[:], want[:]) {
		t.Fatalf("file-backed replay produced a different image")
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestCrasherKillsAtPoint(t *testing.T) {
	crash := &Crasher{KillAt: 2}
	lf := NewCrashLogFile(NewMemLogFile(), crash)
	if _, err := lf.WriteAt([]byte("one"), 0); err != nil {
		t.Fatalf("first write should survive: %v", err)
	}
	if _, err := lf.WriteAt([]byte("two"), 3); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second write: err=%v, want ErrCrashed", err)
	}
	if err := lf.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: err=%v, want ErrCrashed", err)
	}
	if !crash.Crashed() {
		t.Fatalf("crasher did not record the crash")
	}
}

func TestCrashPagerTornWrite(t *testing.T) {
	mem := NewMemPager()
	id, err := mem.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	old := pageWith(t, "old-old-old-old")
	if err := mem.WritePage(id, old); err != nil {
		t.Fatalf("seed: %v", err)
	}
	crash := &Crasher{KillAt: 1, Torn: true}
	cp := NewCrashPager(mem, crash)
	fresh := pageWith(t, "new-new-new-new")
	if err := cp.WritePage(id, fresh); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: err=%v, want ErrCrashed", err)
	}
	var got Page
	if err := mem.ReadPage(id, &got); err != nil {
		t.Fatalf("read: %v", err)
	}
	half := PageSize / 2
	if !bytes.Equal(got[:half], fresh[:half]) || !bytes.Equal(got[half:], old[half:]) {
		t.Fatalf("torn write is not half-new half-old")
	}
}

// TestWALBeforeData proves the writeback gate: evicting a dirty page forces
// the log durable through that page's image first, even under batched sync.
func TestWALBeforeData(t *testing.T) {
	mem := NewMemPager()
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	pool := NewBufferPool(mem, 1, PolicyLRU) // capacity 1: second page evicts first
	pool.AttachWAL(w)
	id0, p0, err := pool.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if _, err := p0.InsertRecord([]byte("dirty")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := pool.Unpin(id0, true); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	// Close the group: a settled page is evictable, but writing it back must
	// still force its image durable first.
	if _, err := w.EndGroup(); err != nil {
		t.Fatalf("end group: %v", err)
	}
	if w.SyncedLSN() != 0 {
		t.Fatalf("log synced before any writeback")
	}
	// Fetching a second page evicts page 0 (dirty) — the gate must sync.
	if _, err := mem.Allocate(); err != nil {
		t.Fatalf("allocate second: %v", err)
	}
	if _, err := pool.Fetch(1); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if w.SyncedLSN() == 0 {
		t.Fatalf("dirty page written back without syncing its WAL image")
	}
	// And the logged image must be exactly what was written back.
	recs, _ := scanWAL(lf.Bytes())
	if len(recs) != 2 || recs[0].typ != recPageImage || recs[1].typ != recCommit {
		t.Fatalf("got %d records, want page image + group marker", len(recs))
	}
	loggedID := PageID(binary.LittleEndian.Uint32(recs[0].payload[0:4]))
	var onDisk Page
	if err := mem.ReadPage(id0, &onDisk); err != nil {
		t.Fatalf("read: %v", err)
	}
	if loggedID != id0 || !bytes.Equal(recs[0].payload[4:], onDisk[:]) {
		t.Fatalf("logged image differs from the page written back")
	}
}

// TestWALCheckpointOnlyLogReopens: a log whose only content is a checkpoint
// marker (the state right after a checkpoint with no later mutations) must
// reopen cleanly, replay nothing, and keep handing out LSNs after the
// marker's.
func TestWALCheckpointOnlyLogReopens(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := w.AppendPage(0, pageWith(t, "x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ckptLSN := w.SyncedLSN()

	w2, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("reopen of checkpoint-marker-only log: %v", err)
	}
	if n, err := w2.ReplayInto(NewMemPager()); err != nil || n != 0 {
		t.Fatalf("replay of checkpoint-only log: n=%d err=%v, want 0, nil", n, err)
	}
	// The marker is the last durable record and a group boundary.
	if w2.Durable() != ckptLSN || w2.Boundary() != ckptLSN {
		t.Fatalf("durable=%d boundary=%d after reopen, want both %d", w2.Durable(), w2.Boundary(), ckptLSN)
	}
	lsn, err := w2.AppendPage(1, pageWith(t, "y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != ckptLSN+1 {
		t.Fatalf("first LSN after checkpoint-only reopen is %d, want %d", lsn, ckptLSN+1)
	}
}

// TestWALLSNContinuesAfterTruncation: checkpoints truncate the file but
// must never reset the LSN sequence — replication resumes by LSN, so a
// restart of the sequence would alias two different histories.
func TestWALLSNContinuesAfterTruncation(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var last LSN
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			lsn, err := w.AppendPage(PageID(i), pageWith(t, fmt.Sprintf("r%d-%d", round, i)))
			if err != nil {
				t.Fatal(err)
			}
			if lsn != last+1 {
				t.Fatalf("round %d: LSN %d after %d, want strictly +1", round, lsn, last)
			}
			last = lsn
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		sizeBefore := w.Size()
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		last++ // the checkpoint marker takes an LSN too
		if w.Size() >= sizeBefore {
			t.Fatalf("round %d: checkpoint did not truncate (%d → %d bytes)", round, sizeBefore, w.Size())
		}
	}
}

// TestWALReadFrom: ReadFrom returns exactly the records with LSN >= from,
// and after a truncating checkpoint the gap is visible as a first returned
// LSN greater than requested — the signal the replication primary turns
// into a snapshot fallback.
func TestWALReadFrom(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.AppendPage(PageID(i), pageWith(t, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := w.ReadFrom(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("ReadFrom(3) returned %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(3+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, 3+i)
		}
		if r.Checkpoint || len(r.Data) != PageSize {
			t.Fatalf("record %d malformed: ckpt=%v len=%d", i, r.Checkpoint, len(r.Data))
		}
	}
	if recs, err := w.ReadFrom(7); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(past head) = %d recs, %v; want empty, nil", len(recs), err)
	}
	// Truncate via checkpoint, then ask for pre-truncation history: the
	// records are gone, and the gap shows as firstLSN > from.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err = w.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].LSN <= 1 {
		t.Fatalf("ReadFrom(1) after truncation = %+v; want the surviving tail starting past LSN 1", recs)
	}
}

// TestWALGroupBoundary: the boundary is the largest durable group end — it
// trails the durable LSN while a group is open and catches up when the
// group closes, which is what keeps replicas from serving torn mutations.
func TestWALGroupBoundary(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var boundaries []LSN
	w.OnBoundary(func(lsn LSN) { boundaries = append(boundaries, lsn) })

	// Group one: two pages (LSN 1, 2), closed (marker LSN 3), made durable.
	if _, err := w.AppendPage(0, pageWith(t, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendPage(1, pageWith(t, "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.EndGroup(); err != nil {
		t.Fatal(err)
	}
	if w.Boundary() != 0 {
		t.Fatalf("boundary %d before any sync, want 0", w.Boundary())
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.Boundary() != 3 {
		t.Fatalf("boundary %d after group commit, want the marker LSN 3", w.Boundary())
	}

	// Group two: durable mid-group (an eviction-forced sync) must NOT move
	// the boundary — the group is still open.
	if _, err := w.AppendPage(2, pageWith(t, "c")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Durable() != 4 {
		t.Fatalf("durable %d after forced sync, want 4", w.Durable())
	}
	if w.Boundary() != 3 {
		t.Fatalf("boundary %d moved by a mid-group sync, want 3", w.Boundary())
	}
	// Closing the group appends the marker (LSN 5); the boundary holds until
	// the marker itself is durable — a marker lost in a crash would discard
	// the group at replay, so replicas must not expose it early.
	marker, err := w.EndGroup()
	if err != nil {
		t.Fatal(err)
	}
	if marker != 5 {
		t.Fatalf("second group marker at LSN %d, want 5", marker)
	}
	if w.Boundary() != 3 {
		t.Fatalf("boundary %d before the marker is durable, want 3", w.Boundary())
	}
	if err := w.WaitDurable(marker); err != nil {
		t.Fatal(err)
	}
	if w.Boundary() != 5 {
		t.Fatalf("boundary %d after the marker synced, want 5", w.Boundary())
	}
	want := []LSN{3, 5}
	if len(boundaries) != len(want) || boundaries[0] != want[0] || boundaries[1] != want[1] {
		t.Fatalf("boundary notifications %v, want %v", boundaries, want)
	}
}

// TestWALObservers: OnAppend sees every record with its payload copied out
// of the WAL's buffers, and OnDurable fires on every sync with the new
// durable LSN.
func TestWALObservers(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var appended []Record
	var durables []LSN
	w.OnAppend(func(r Record) { appended = append(appended, r) })
	w.OnDurable(func(lsn LSN) { durables = append(durables, lsn) })

	p := pageWith(t, "observed")
	if _, err := w.AppendPage(7, p); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(appended) != 1 || appended[0].Page != 7 || appended[0].LSN != 1 {
		t.Fatalf("bad append observation: %+v", appended)
	}
	if !bytes.Equal(appended[0].Data, p[:]) {
		t.Fatal("observer saw a different page image than was appended")
	}
	if len(durables) != 1 || durables[0] != 1 {
		t.Fatalf("bad durable observations: %v", durables)
	}
	// Detach: no further callbacks.
	w.OnAppend(nil)
	w.OnDurable(nil)
	if _, err := w.AppendPage(8, p); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(appended) != 1 || len(durables) != 1 {
		t.Fatal("detached observers still fired")
	}
}
