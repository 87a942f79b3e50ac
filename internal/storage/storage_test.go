package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.InitPage()
	slot, err := p.InsertRecord([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.GetRecord(slot)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if p.NumSlots() != 1 {
		t.Fatalf("slots = %d", p.NumSlots())
	}
}

func TestPageDeleteAndTombstoneReuse(t *testing.T) {
	var p Page
	p.InitPage()
	s0, _ := p.InsertRecord([]byte("aaa"))
	s1, _ := p.InsertRecord([]byte("bbb"))
	if err := p.DeleteRecord(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetRecord(s0); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("deleted record read: %v", err)
	}
	if err := p.DeleteRecord(s0); !errors.Is(err, ErrNoRecord) {
		t.Fatal("double delete should fail")
	}
	// New insert reuses the tombstoned slot.
	s2, err := p.InsertRecord([]byte("ccc"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Fatalf("expected slot reuse: got %d, want %d", s2, s0)
	}
	if got, _ := p.GetRecord(s1); string(got) != "bbb" {
		t.Fatalf("neighbour record damaged: %q", got)
	}
}

func TestPageFullAndCompaction(t *testing.T) {
	var p Page
	p.InitPage()
	rec := bytes.Repeat([]byte("x"), 1000)
	var slots []int
	for {
		s, err := p.InsertRecord(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) != 4 {
		t.Fatalf("expected 4 x 1000B records per 4KB page, got %d", len(slots))
	}
	// Delete one in the middle; without compaction the hole is unusable
	// for a 1000-byte record, with compaction it is.
	if err := p.DeleteRecord(slots[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InsertRecord(rec); err != nil {
		t.Fatalf("insert after delete should compact and fit: %v", err)
	}
	// Survivors intact after compaction.
	for _, s := range []int{slots[0], slots[2], slots[3]} {
		got, err := p.GetRecord(s)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d damaged after compaction: %v", s, err)
		}
	}
}

func TestPageUpdate(t *testing.T) {
	var p Page
	p.InitPage()
	s, _ := p.InsertRecord([]byte("abcdef"))
	if err := p.UpdateRecord(s, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.GetRecord(s); string(got) != "xyz" {
		t.Fatalf("shrink update = %q", got)
	}
	if err := p.UpdateRecord(s, bytes.Repeat([]byte("q"), 100)); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.GetRecord(s); len(got) != 100 {
		t.Fatalf("grow update len = %d", len(got))
	}
	if err := p.UpdateRecord(99, []byte("nope")); !errors.Is(err, ErrNoRecord) {
		t.Fatal("update of missing slot should fail")
	}
}

func TestPageUpdateGrowWhenFull(t *testing.T) {
	var p Page
	p.InitPage()
	s0, _ := p.InsertRecord(bytes.Repeat([]byte("a"), 2000))
	if _, err := p.InsertRecord(bytes.Repeat([]byte("b"), 2000)); err != nil {
		t.Fatal(err)
	}
	err := p.UpdateRecord(s0, bytes.Repeat([]byte("c"), 2500))
	if !errors.Is(err, ErrPageFull) {
		t.Fatalf("grow beyond capacity: %v", err)
	}
	// Original record must survive the failed update.
	got, gerr := p.GetRecord(s0)
	if gerr != nil || len(got) != 2000 || got[0] != 'a' {
		t.Fatalf("record damaged by failed update: %v len=%d", gerr, len(got))
	}
}

func TestPageRejectsOversizeRecord(t *testing.T) {
	var p Page
	p.InitPage()
	if _, err := p.InsertRecord(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize insert: %v", err)
	}
	if _, err := p.InsertRecord(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size insert should fit in fresh page: %v", err)
	}
}

func TestQuickPageRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var p Page
		p.InitPage()
		type stored struct {
			slot int
			data []byte
		}
		var live []stored
		for _, pl := range payloads {
			if len(pl) > 512 {
				pl = pl[:512]
			}
			s, err := p.InsertRecord(pl)
			if errors.Is(err, ErrPageFull) {
				break
			}
			if err != nil {
				return false
			}
			live = append(live, stored{s, append([]byte(nil), pl...)})
		}
		for _, st := range live {
			got, err := p.GetRecord(st.slot)
			if err != nil || !bytes.Equal(got, st.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemPager(t *testing.T) {
	m := NewMemPager()
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	if err := m.ReadPage(id, &p); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 0 {
		t.Fatal("fresh page should be initialized")
	}
	p.InsertRecord([]byte("persist me"))
	if err := m.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := m.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.GetRecord(0); string(got) != "persist me" {
		t.Fatalf("round trip = %q", got)
	}
	if err := m.ReadPage(99, &p); !errors.Is(err, ErrNoPage) {
		t.Fatalf("missing page: %v", err)
	}
	if err := m.WritePage(99, &p); !errors.Is(err, ErrNoPage) {
		t.Fatalf("missing page write: %v", err)
	}
}

func TestFilePagerPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fp, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.InitPage()
	p.InsertRecord([]byte("durable"))
	if err := fp.WritePage(id, &p); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify.
	fp2, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fp2.Close()
	if fp2.NumPages() != 1 {
		t.Fatalf("pages = %d", fp2.NumPages())
	}
	var q Page
	if err := fp2.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.GetRecord(0); string(got) != "durable" {
		t.Fatalf("reopen read = %q", got)
	}
}

func newTestPool(capacity int, policy ReplacementPolicy) *BufferPool {
	return NewBufferPool(NewMemPager(), capacity, policy, nil)
}

func TestBufferPoolHitMiss(t *testing.T) {
	pool := newTestPool(2, PolicyLRU)
	id, _, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(id); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, false)
	st := pool.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d", st.Hits)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	pager := NewMemPager()
	pool := NewBufferPool(pager, 2, PolicyLRU, nil)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, page, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := page.InsertRecord([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Pool holds 2 frames; allocating 3 pages evicted at least one dirty
	// page, which must have been written back.
	st := pool.Stats()
	if st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("stats = %+v, expected eviction with writeback", st)
	}
	for i, id := range ids {
		page, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := page.GetRecord(0)
		if err != nil || got[0] != byte('a'+i) {
			t.Fatalf("page %d content lost: %v %q", id, err, got)
		}
		pool.Unpin(id, false)
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	pool := newTestPool(2, PolicyLRU)
	a, _, _ := pool.Allocate()
	b, _, _ := pool.Allocate()
	_ = a
	_ = b
	// Both frames pinned: a third page cannot enter the pool.
	if _, _, err := pool.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	pool.Unpin(a, false)
	if _, _, err := pool.Allocate(); err != nil {
		t.Fatalf("after unpin allocation should succeed: %v", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	pool := newTestPool(2, PolicyLRU)
	if err := pool.Unpin(0, false); err == nil {
		t.Fatal("unpin of uncached page should fail")
	}
	id, _, _ := pool.Allocate()
	pool.Unpin(id, false)
	if err := pool.Unpin(id, false); err == nil {
		t.Fatal("unbalanced unpin should fail")
	}
}

func TestBufferPoolPolicies(t *testing.T) {
	for _, policy := range []ReplacementPolicy{PolicyLRU, PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			pager := NewMemPager()
			pool := NewBufferPool(pager, 4, policy, nil)
			// Create 16 pages with distinct content.
			for i := 0; i < 16; i++ {
				id, page, err := pool.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				page.InsertRecord([]byte{byte(i)})
				pool.Unpin(id, true)
			}
			// Random access must always observe the right bytes.
			rng := rand.New(rand.NewSource(3))
			for n := 0; n < 500; n++ {
				id := PageID(rng.Intn(16))
				page, err := pool.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := page.GetRecord(0)
				if err != nil || got[0] != byte(id) {
					t.Fatalf("page %d = %v %v", id, got, err)
				}
				pool.Unpin(id, false)
			}
			st := pool.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("expected mixed hits/misses with small pool: %+v", st)
			}
		})
	}
}

func TestHitRatioImprovesWithCapacity(t *testing.T) {
	run := func(capacity int) float64 {
		pager := NewMemPager()
		pool := NewBufferPool(pager, capacity, PolicyLRU, nil)
		for i := 0; i < 32; i++ {
			id, _, _ := pool.Allocate()
			pool.Unpin(id, true)
		}
		rng := rand.New(rand.NewSource(1))
		for n := 0; n < 2000; n++ {
			// Zipf-ish skew: favor low page ids.
			id := PageID(rng.Intn(8))
			if rng.Float64() < 0.3 {
				id = PageID(rng.Intn(32))
			}
			if _, err := pool.Fetch(id); err != nil {
				t.Fatal(err)
			}
			pool.Unpin(id, false)
		}
		return pool.Stats().HitRatio()
	}
	small, large := run(2), run(16)
	if large <= small {
		t.Fatalf("hit ratio should improve with capacity: %v vs %v", small, large)
	}
}

// preparePages allocates n pages through the pager directly so tests can
// Fetch them by ID.
func preparePages(t *testing.T, pager Pager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		id, err := pager.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var p Page
		p.InitPage()
		if err := pager.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestBufferPoolFlushWritesBack checks that Flush puts every dirty page's
// bytes in the pager itself, not just in the pool.
func TestBufferPoolFlushWritesBack(t *testing.T) {
	pager := NewMemPager()
	ids := preparePages(t, pager, 12)
	pool := NewBufferPool(pager, 32, PolicyLRU, nil)

	for i, id := range ids {
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.InsertRecord([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Flushes != 12 {
		t.Fatalf("flushes = %d, want one per dirty page", st.Flushes)
	}
	for i, id := range ids {
		var p Page
		if err := pager.ReadPage(id, &p); err != nil {
			t.Fatal(err)
		}
		got, err := p.GetRecord(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("record-%d", i); string(got) != want {
			t.Fatalf("page %d = %q, want %q", id, got, want)
		}
	}
}

// TestBufferPoolConcurrentFetch hammers the pool from several goroutines;
// run under -race it checks the pool lock.
func TestBufferPoolConcurrentFetch(t *testing.T) {
	pager := NewMemPager()
	ids := preparePages(t, pager, 64)
	pool := NewBufferPool(pager, 32, PolicyClock, nil)

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := ids[(w*rounds+r*7)%len(ids)]
				if _, err := pool.Fetch(id); err != nil {
					t.Errorf("worker %d: fetch %d: %v", w, id, err)
					return
				}
				if err := pool.Unpin(id, r%3 == 0); err != nil {
					t.Errorf("worker %d: unpin %d: %v", w, id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*rounds)
	}
}

func TestHeapFileInsertGetDelete(t *testing.T) {
	h := NewHeapFile(newTestPool(8, PolicyLRU))
	rid, err := h.Insert([]byte("record one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "record one" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrTombstone) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestHeapFileManyRecords(t *testing.T) {
	h := NewHeapFile(newTestPool(4, PolicyClock))
	const n = 2000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("p"), i%200)))
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids[i] = rid
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		want := fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("p"), i%200))
		if string(got) != want {
			t.Fatalf("record %d = %q", i, got[:20])
		}
	}
	count, err := h.Len()
	if err != nil || count != n {
		t.Fatalf("len = %d, %v", count, err)
	}
	if h.Pool().NumPages() < 2 {
		t.Fatal("expected multiple pages")
	}
}

func TestHeapFileScan(t *testing.T) {
	h := NewHeapFile(newTestPool(8, PolicyLRU))
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("rec%02d", i)
		want[s] = true
		if _, err := h.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	if err := h.Scan(func(rid RID, data []byte) bool {
		got[string(data)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d, want %d", len(got), len(want))
	}
	// Early stop.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestHeapFileUpdate(t *testing.T) {
	h := NewHeapFile(newTestPool(8, PolicyLRU))
	rid, _ := h.Insert([]byte("short"))
	if err := h.Update(rid, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(rid); string(got) != "xy" {
		t.Fatalf("after shrink = %q", got)
	}
	if err := h.Update(rid, bytes.Repeat([]byte("L"), 300)); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(rid); len(got) != 300 {
		t.Fatalf("after grow = %d bytes", len(got))
	}
}

// TestHeapFileChurnReusesFreedRoom: constant-size records inserted beside
// deletes of the oldest keep the live set constant, so the file must stay
// at its size — each insert lands in the room a delete freed.
func TestHeapFileChurnReusesFreedRoom(t *testing.T) {
	h := NewHeapFile(newTestPool(8, PolicyLRU))
	record := bytes.Repeat([]byte("r"), 200)
	var live []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert(record)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rid)
	}
	start := h.Pool().NumPages()
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert(record)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Delete(live[0]); err != nil {
			t.Fatal(err)
		}
		live = append(live[1:], rid)
	}
	if end := h.Pool().NumPages(); end > start+1 {
		t.Fatalf("constant live set grew the file from %d to %d pages", start, end)
	}
	if n, err := h.Len(); err != nil || n != len(live) {
		t.Fatalf("live records = %d, %v; want %d", n, err, len(live))
	}
}

func TestHeapFileRejectsOversize(t *testing.T) {
	h := NewHeapFile(newTestPool(8, PolicyLRU))
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestHeapFileOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.db")
	fp, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(fp, 4, PolicyLRU, nil)
	h := NewHeapFile(pool)
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("disk-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: records must be durable.
	fp2, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := NewBufferPool(fp2, 4, PolicyLRU, nil)
	defer pool2.Close()
	h2 := NewHeapFile(pool2)
	for i, rid := range rids {
		got, err := h2.Get(rid)
		if err != nil || string(got) != fmt.Sprintf("disk-%d", i) {
			t.Fatalf("durable get %d: %q %v", i, got, err)
		}
	}
}

func TestQuickHeapFileGetMatchesInsert(t *testing.T) {
	h := NewHeapFile(newTestPool(16, PolicyLRU))
	f := func(data []byte) bool {
		if len(data) > MaxRecordSize {
			data = data[:MaxRecordSize]
		}
		rid, err := h.Insert(data)
		if err != nil {
			return false
		}
		got, err := h.Get(rid)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
