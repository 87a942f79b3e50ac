package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
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

// appendCommitted appends pages as one group and waits for it to be durable.
func appendCommitted(t *testing.T, w *WAL, pages ...PageImage) LSN {
	t.Helper()
	end, err := w.AppendGroup(pages)
	if err != nil {
		t.Fatalf("append group: %v", err)
	}
	if err := w.WaitDurable(end); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	return end
}

// numberedPages returns n single-record pages with ids 0..n-1.
func numberedPages(t *testing.T, n int, format string) []PageImage {
	t.Helper()
	pages := make([]PageImage, n)
	for i := range pages {
		pages[i] = PageImage{ID: PageID(i), Page: pageWith(t, fmt.Sprintf(format, i))}
	}
	return pages
}

func TestWALAppendAndReplay(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	images := map[PageID]*Page{}
	var group []PageImage
	for i := 0; i < 5; i++ {
		id := PageID(i % 3) // later images of a page must win
		p := pageWith(t, fmt.Sprintf("page-%d-gen-%d", id, i))
		group = append(group, PageImage{ID: id, Page: p})
		images[id] = p
	}
	appendCommitted(t, w, group...)

	// Reopen and replay into a fresh pager, as Open would after a crash.
	w2, err := OpenWAL(lf)
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
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendCommitted(t, w, numberedPages(t, 3, "p%d")...)
	goodSize, err := lf.Size()
	if err != nil {
		t.Fatalf("size: %v", err)
	}

	// A crash mid-group leaves an unfinished group: the second group's
	// first image intact, its second image torn, and no marker. Build it by
	// cutting a complete two-image group short.
	appendCommitted(t, w, numberedPages(t, 2, "lost%d")...)
	recLen := int64(walHeaderSize + 4 + PageSize)
	if err := lf.Truncate(goodSize + recLen + recLen/3); err != nil {
		t.Fatalf("tear the tail: %v", err)
	}

	w2, err := OpenWAL(lf)
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
	appendCommitted(t, w2, PageImage{ID: 9, Page: pageWith(t, "after-tear")})
	recs, valid := scanWAL(lf.Bytes())
	if len(recs) != 6 { // 3 images + marker + the post-tear image + marker
		t.Fatalf("scan found %d records, want 6", len(recs))
	}
	if int64(valid) != w2.Size() {
		t.Fatalf("scan valid=%d, wal size=%d", valid, w2.Size())
	}
}

func TestWALCorruptMiddleStopsScan(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := w.AppendGroup(numberedPages(t, 3, "p%d")); err != nil {
		t.Fatalf("append group: %v", err)
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

// TestWALCommitAlwaysDurable: every commit wait that returns has made the
// log durable through its group's marker.
func TestWALCommitAlwaysDurable(t *testing.T) {
	lf := NewMemLogFile()
	crash := &Crasher{} // count-only: every WriteAt/Sync/Truncate is a point
	cf := NewCrashLogFile(lf, crash)
	w, err := OpenWAL(cf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	before := crash.Points()
	for i := 0; i < 8; i++ {
		end := appendCommitted(t, w, PageImage{ID: PageID(i), Page: pageWith(t, "x")})
		if end != LSN(2*i+2) || w.Durable() != end {
			t.Fatalf("commit %d acknowledged at durable LSN %d, group end %d, want %d", i, w.Durable(), end, 2*i+2)
		}
	}
	// A lone committer gets no coalescing: each group is an image write, a
	// marker write and a sync, so 8 commits cost 24 IO points.
	if got := crash.Points() - before; got != 24 {
		t.Fatalf("8 serial commits cost %d IO points, want 24 (16 writes + 8 syncs)", got)
	}
}

// TestWALCommitCoversGroupAfterEvictionSync: an eviction in the middle of a
// group syncs the log only through the end of the group that logged the
// victim, a whole earlier group. The open group's pages reach the log only
// when it closes, and its commit wait then covers its marker.
func TestWALCommitCoversGroupAfterEvictionSync(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var durables []LSN
	w.OnDurable(func(lsn LSN) { durables = append(durables, lsn) })
	mem := NewMemPager()
	pool := NewBufferPool(mem, 2, PolicyLRU, w)
	dirty := func(id PageID, p *Page, payload string) Page {
		t.Helper()
		if _, err := p.InsertRecord([]byte(payload)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		img := *p
		if err := pool.Unpin(id, true); err != nil {
			t.Fatalf("unpin: %v", err)
		}
		return img
	}

	// Group one logs page a; nothing waits on it yet.
	a, pa, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	imgA := dirty(a, pa, "a")
	first, err := pool.LogGroup()
	if err != nil {
		t.Fatalf("log group: %v", err)
	}

	// Group two dirties page b, then needs a frame: evicting a passes the
	// WAL-before-data gate while group two is still open.
	b, pb, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	imgB := dirty(b, pb, "b")
	spare, err := mem.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(spare); err != nil {
		t.Fatalf("fetch forcing an eviction: %v", err)
	}
	if st := pool.Stats(); st.Flushes != 1 {
		t.Fatalf("%d writebacks, want the one of page %d", st.Flushes, a)
	}
	if w.Durable() != first {
		t.Fatalf("eviction synced the log through %d, want group one's end %d", w.Durable(), first)
	}
	if recs, err := w.ReadFrom(0); err != nil || len(recs) != 2 {
		t.Fatalf("log before group two closes = %+v, %v; want only group one", recs, err)
	}
	if err := pool.Unpin(spare, false); err != nil {
		t.Fatal(err)
	}

	// Group two commits.
	marker, err := pool.LogGroup()
	if err != nil {
		t.Fatalf("log group: %v", err)
	}
	if err := w.WaitDurable(marker); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	if w.Durable() != marker {
		t.Fatalf("commit acknowledged with durable LSN %d, group marker %d: the group is not durable", w.Durable(), marker)
	}
	if len(durables) != 2 || durables[0] != first || durables[1] != marker {
		t.Fatalf("durable advances %v, want the two group ends [%d %d]", durables, first, marker)
	}

	// The data file and the log recover both groups without the pool.
	w2, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n, err := w2.ReplayInto(mem); err != nil || n != 2 {
		t.Fatalf("replay: n=%d err=%v, want 2 page images", n, err)
	}
	for _, want := range []struct {
		id  PageID
		img Page
	}{{a, imgA}, {b, imgB}} {
		var got Page
		if err := mem.ReadPage(want.id, &got); err != nil {
			t.Fatal(err)
		}
		if got != want.img {
			t.Fatalf("page %d after recovery differs from its committed image", want.id)
		}
	}
}

func TestWALCheckpointTruncatesAndKeepsLSNsMonotonic(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendCommitted(t, w, numberedPages(t, 4, "x%d")...)
	bigSize := w.Size()
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if w.Size() >= bigSize {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", bigSize, w.Size())
	}
	// Replay after checkpoint applies nothing: the data file owns it all.
	pager := NewMemPager()
	w2, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if n, err := w2.ReplayInto(pager); err != nil || n != 0 {
		t.Fatalf("replay after checkpoint: n=%d err=%v, want 0 records", n, err)
	}
	// Post-checkpoint appends continue the LSN sequence past the marker.
	if lsn := appendCommitted(t, w, PageImage{ID: 7, Page: pageWith(t, "y")}); lsn != 8 {
		// 4 images + commit marker + checkpoint marker, then image + marker
		t.Fatalf("group end %d after checkpoint, want 8", lsn)
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
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	want := pageWith(t, "on-disk")
	if _, err := w.AppendGroup([]PageImage{{ID: 3, Page: want}}); err != nil {
		t.Fatalf("append group: %v", err)
	}
	if err := w.Close(); err != nil { // Close syncs
		t.Fatalf("close: %v", err)
	}

	lf2, err := OpenLogFile(path)
	if err != nil {
		t.Fatalf("reopen log file: %v", err)
	}
	w2, err := OpenWAL(lf2)
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
// the log durable through that page's image first.
func TestWALBeforeData(t *testing.T) {
	mem := NewMemPager()
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	pool := NewBufferPool(mem, 1, PolicyLRU, w) // capacity 1: second page evicts first
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
	// Log the group: a logged page is evictable, but writing it back must
	// still force its image durable first.
	if _, err := pool.LogGroup(); err != nil {
		t.Fatalf("log group: %v", err)
	}
	if w.Durable() != 0 {
		t.Fatalf("log synced before any writeback")
	}
	// Fetching a second page evicts page 0 (dirty) — the gate must sync.
	if _, err := mem.Allocate(); err != nil {
		t.Fatalf("allocate second: %v", err)
	}
	if _, err := pool.Fetch(1); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if w.Durable() == 0 {
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

// TestBufferPoolLogGroup: a page unpinned dirty twice before LogGroup is
// logged once, with its latest image, and a dirtied frame that is not yet
// logged is never written back by eviction or FlushSettled: a pool whose
// every frame is unlogged reports ErrPoolExhausted instead.
func TestBufferPoolLogGroup(t *testing.T) {
	for _, policy := range []ReplacementPolicy{PolicyLRU, PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			mem := NewMemPager()
			w, err := OpenWAL(NewMemLogFile())
			if err != nil {
				t.Fatalf("open wal: %v", err)
			}
			pool := NewBufferPool(mem, 2, policy, w)
			write := func(id PageID, p *Page, payload string) {
				t.Helper()
				if _, err := p.InsertRecord([]byte(payload)); err != nil {
					t.Fatalf("insert: %v", err)
				}
				if err := pool.Unpin(id, true); err != nil {
					t.Fatalf("unpin: %v", err)
				}
			}
			a, pa, err := pool.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			write(a, pa, "a1")
			if pa, err = pool.Fetch(a); err != nil {
				t.Fatal(err)
			}
			write(a, pa, "a2")
			b, pb, err := pool.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			write(b, pb, "b1")
			spare, err := mem.Allocate() // a third page, on the pager only
			if err != nil {
				t.Fatal(err)
			}

			// No steal: both frames are unlogged.
			if err := pool.FlushSettled(); err != nil {
				t.Fatalf("flush settled: %v", err)
			}
			if _, err := pool.Fetch(spare); !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("fetch into a pool of unlogged frames: err=%v, want ErrPoolExhausted", err)
			}
			if st := pool.Stats(); st.Flushes != 0 {
				t.Fatalf("%d unlogged frames written back", st.Flushes)
			}
			if w.Size() != 0 {
				t.Fatalf("unpin wrote %d log bytes; only LogGroup may log", w.Size())
			}

			end, err := pool.LogGroup()
			if err != nil {
				t.Fatalf("log group: %v", err)
			}
			recs, err := w.ReadFrom(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || recs[0].Page != a || recs[1].Page != b || !recs[2].Commit || recs[2].LSN != end {
				t.Fatalf("logged %+v, want one image each of pages %d and %d, then the marker %d", recs, a, b, end)
			}
			if !bytes.Equal(recs[0].Data, pa[:]) {
				t.Fatal("page dirtied twice was not logged with its latest image")
			}
			if again, err := pool.LogGroup(); err != nil || again != end {
				t.Fatalf("empty LogGroup = %d, %v; want the last group end %d", again, err, end)
			}

			// Logged frames are evictable, behind the WAL-before-data gate.
			if _, err := pool.Fetch(spare); err != nil {
				t.Fatalf("fetch after LogGroup: %v", err)
			}
			if w.Durable() != end {
				t.Fatalf("writeback with the log durable through %d, want %d", w.Durable(), end)
			}
			if err := pool.Unpin(spare, false); err != nil {
				t.Fatal(err)
			}
			if err := pool.FlushSettled(); err != nil {
				t.Fatalf("flush settled: %v", err)
			}
			if st := pool.Stats(); st.Flushes != 2 {
				t.Fatalf("%d writebacks, want 2 (one eviction, one FlushSettled)", st.Flushes)
			}
			for _, r := range recs[:2] {
				var got Page
				if err := mem.ReadPage(r.Page, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[:], r.Data) {
					t.Fatalf("page %d written back differs from its logged image", r.Page)
				}
			}
		})
	}
}

// TestWALCheckpointOnlyLogReopens: a log whose only content is a checkpoint
// marker (the state right after a checkpoint with no later mutations) must
// reopen cleanly, replay nothing, and keep handing out LSNs after the
// marker's.
func TestWALCheckpointOnlyLogReopens(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendCommitted(t, w, PageImage{ID: 0, Page: pageWith(t, "x")})
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ckptLSN := w.Durable()

	w2, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("reopen of checkpoint-marker-only log: %v", err)
	}
	if n, err := w2.ReplayInto(NewMemPager()); err != nil || n != 0 {
		t.Fatalf("replay of checkpoint-only log: n=%d err=%v, want 0, nil", n, err)
	}
	// The marker is the last durable record, and the group end an empty
	// group reports.
	if w2.Durable() != ckptLSN {
		t.Fatalf("durable=%d after reopen, want %d", w2.Durable(), ckptLSN)
	}
	if end, err := w2.AppendGroup(nil); err != nil || end != ckptLSN {
		t.Fatalf("empty group after reopen = %d, %v; want %d, nil", end, err, ckptLSN)
	}
	end, err := w2.AppendGroup([]PageImage{{ID: 1, Page: pageWith(t, "y")}})
	if err != nil {
		t.Fatal(err)
	}
	if end != ckptLSN+2 { // image at ckptLSN+1, marker at ckptLSN+2
		t.Fatalf("first group end after checkpoint-only reopen is %d, want %d", end, ckptLSN+2)
	}
}

// TestWALLSNContinuesAfterTruncation: checkpoints truncate the file but
// must never reset the LSN sequence — replication resumes by LSN, so a
// restart of the sequence would alias two different histories.
func TestWALLSNContinuesAfterTruncation(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var last LSN
	for round := 0; round < 3; round++ {
		end := appendCommitted(t, w, numberedPages(t, 4, fmt.Sprintf("r%d-%%d", round))...)
		if end != last+5 { // 4 images + marker
			t.Fatalf("round %d: group end %d after %d, want strictly +5", round, end, last)
		}
		last = end
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
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendCommitted(t, w, numberedPages(t, 6, "p%d")...) // images 1-6, marker 7
	recs, err := w.ReadFrom(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("ReadFrom(3) returned %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(3+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, 3+i)
		}
		if last := i == len(recs)-1; r.Checkpoint || r.Commit != last || (!last && len(r.Data) != PageSize) {
			t.Fatalf("record %d malformed: ckpt=%v commit=%v len=%d", i, r.Checkpoint, r.Commit, len(r.Data))
		}
	}
	if recs, err := w.ReadFrom(8); err != nil || len(recs) != 0 {
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

// gatedLogFile holds each Sync while gate is set: Sync sends on gate when
// the fsync starts, then waits for the test to send back before finishing.
type gatedLogFile struct {
	LogFile
	gate chan struct{}
}

func (g *gatedLogFile) Sync() error {
	if g.gate != nil {
		g.gate <- struct{}{}
		<-g.gate
	}
	return g.LogFile.Sync()
}

// TestWALGroupBoundary: the durable LSN only ever lands on a group end. A
// sync round captures the log tail as its goal under the lock AppendGroup
// holds, so a group appended while the round's fsync is in flight is not
// covered by that round, and no part of a group becomes durable alone.
func TestWALGroupBoundary(t *testing.T) {
	gf := &gatedLogFile{LogFile: NewMemLogFile()}
	w, err := OpenWAL(gf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var durables []LSN
	w.OnDurable(func(lsn LSN) { durables = append(durables, lsn) })

	// Group one: two pages (LSN 1, 2) and the marker (LSN 3).
	first, err := w.AppendGroup([]PageImage{{ID: 0, Page: pageWith(t, "a")}, {ID: 1, Page: pageWith(t, "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 {
		t.Fatalf("first group marker at LSN %d, want 3", first)
	}
	if w.Durable() != 0 {
		t.Fatalf("durable %d before any sync, want 0", w.Durable())
	}
	if err := w.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	if w.Durable() != first {
		t.Fatalf("durable %d after group commit, want the marker LSN %d", w.Durable(), first)
	}

	// Group two (marker LSN 5) is committed by a round whose fsync is held
	// while group three (images 6, 7, marker 8) is appended.
	second, err := w.AppendGroup([]PageImage{{ID: 2, Page: pageWith(t, "c")}})
	if err != nil {
		t.Fatal(err)
	}
	gf.gate = make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- w.WaitDurable(second) }()
	<-gf.gate // the round has captured its goal and is in its fsync
	third, err := w.AppendGroup([]PageImage{{ID: 3, Page: pageWith(t, "d")}, {ID: 4, Page: pageWith(t, "e")}})
	if err != nil {
		t.Fatalf("append during an in-flight sync: %v", err)
	}
	if second != 5 || third != 8 {
		t.Fatalf("group markers at LSN %d and %d, want 5 and 8", second, third)
	}
	if w.Durable() != first {
		t.Fatalf("durable %d while the round's fsync is in flight, want %d", w.Durable(), first)
	}
	gf.gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	gf.gate = nil
	if w.Durable() != second {
		t.Fatalf("durable %d after the round, want its goal %d: the round covered records appended during its fsync", w.Durable(), second)
	}

	if err := w.WaitDurable(third); err != nil {
		t.Fatal(err)
	}
	// An empty group appends nothing and returns the last group end.
	if end, err := w.AppendGroup(nil); err != nil || end != third {
		t.Fatalf("empty group = %d, %v; want the last group end %d", end, err, third)
	}
	// A checkpoint marker is its own durable group.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := []LSN{first, second, third, third + 1}
	if fmt.Sprint(durables) != fmt.Sprint(want) || w.Durable() != third+1 {
		t.Fatalf("durable advances %v (now %d), want %v", durables, w.Durable(), want)
	}
}

// TestWALDurableIsGroupEnd: AppendGroup writes a group whole under the log
// lock, so no interleaving of committers, eviction-style waits on earlier
// group ends and a checkpoint can make a mid-group LSN durable. Every LSN
// OnDurable reports is a commit or checkpoint marker.
func TestWALDurableIsGroupEnd(t *testing.T) {
	const writers, rounds = 4, 25
	w, err := OpenWAL(NewMemLogFile())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Both observers run under the WAL lock; the slices are read only after
	// every goroutine has finished.
	var appended []Record
	var durables []LSN
	w.OnAppend(func(r Record) { appended = append(appended, r) })
	w.OnDurable(func(lsn LSN) { durables = append(durables, lsn) })

	ends := make(chan LSN, writers*rounds)
	errs := make(chan error, writers+2)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 0; v < rounds; v++ {
				pages := make([]PageImage, 1+(i+v)%3)
				for j := range pages {
					pages[j] = PageImage{ID: PageID(10*i + j), Page: gcPage(i, v)}
				}
				end, err := w.AppendGroup(pages)
				if err != nil {
					errs <- err
					return
				}
				ends <- end
				if v%2 == 0 {
					if err := w.WaitDurable(end); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	// The eviction path: WaitDurable on group ends appended earlier, while
	// later groups keep arriving.
	evictions := make(chan struct{})
	go func() {
		defer close(evictions)
		for end := range ends {
			if err := w.WaitDurable(end); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Checkpoint(); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(ends)
	<-evictions
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// appended is the whole log in LSN order; ReadFrom(0) is what survived
	// the checkpoint's truncation, and must be its suffix.
	for i, r := range appended {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
		}
	}
	recs, err := w.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !recs[0].Checkpoint {
		t.Fatalf("log after the checkpoint does not start with its marker: %+v", recs)
	}
	for _, r := range recs {
		a := appended[r.LSN-1]
		if a.Commit != r.Commit || a.Checkpoint != r.Checkpoint || a.Page != r.Page || !bytes.Equal(a.Data, r.Data) {
			t.Fatalf("record %d in the log differs from the one appended", r.LSN)
		}
	}
	if len(durables) == 0 {
		t.Fatal("no durable advance observed")
	}
	for i, lsn := range durables {
		if i > 0 && lsn <= durables[i-1] {
			t.Fatalf("durable LSN went from %d to %d", durables[i-1], lsn)
		}
		if r := appended[lsn-1]; !r.Commit && !r.Checkpoint {
			t.Fatalf("durable LSN %d is a page image of page %d, not a group end", lsn, r.Page)
		}
	}
	if last := appended[len(appended)-1].LSN; w.Durable() != last {
		t.Fatalf("durable %d after every group end was waited on, want the last marker %d", w.Durable(), last)
	}
}

// TestWALObservers: OnAppend sees every record with its payload copied out
// of the WAL's buffers, and OnDurable fires on every sync with the new
// durable LSN, the group's marker.
func TestWALObservers(t *testing.T) {
	lf := NewMemLogFile()
	w, err := OpenWAL(lf)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var appended []Record
	var durables []LSN
	w.OnAppend(func(r Record) { appended = append(appended, r) })
	w.OnDurable(func(lsn LSN) { durables = append(durables, lsn) })

	p := pageWith(t, "observed")
	appendCommitted(t, w, PageImage{ID: 7, Page: p})
	if len(appended) != 2 || appended[0].Page != 7 || appended[0].LSN != 1 ||
		!appended[1].Commit || appended[1].LSN != 2 {
		t.Fatalf("bad append observation: %+v", appended)
	}
	if !bytes.Equal(appended[0].Data, p[:]) {
		t.Fatal("observer saw a different page image than was appended")
	}
	if len(durables) != 1 || durables[0] != 2 {
		t.Fatalf("bad durable observations: %v", durables)
	}
	// Detach: no further callbacks.
	w.OnAppend(nil)
	w.OnDurable(nil)
	appendCommitted(t, w, PageImage{ID: 8, Page: p})
	if len(appended) != 2 || len(durables) != 1 {
		t.Fatal("detached observers still fired")
	}
}
