package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Pool traffic mirrored into the process-wide metrics registry (per-pool
// counts stay in PoolStats). Resolved once; each event is one atomic add.
var (
	mPoolHits      = obs.Default().Counter("gis_storage_pool_hits_total")
	mPoolMisses    = obs.Default().Counter("gis_storage_pool_misses_total")
	mPoolEvictions = obs.Default().Counter("gis_storage_pool_evictions_total")
	mPoolFlushes   = obs.Default().Counter("gis_storage_pool_flushes_total")
)

// ReplacementPolicy selects which unpinned frame to evict when the pool is
// full. LRU and Clock are provided; the B5 ablation compares them.
type ReplacementPolicy uint8

// Supported replacement policies.
const (
	PolicyLRU ReplacementPolicy = iota
	PolicyClock
)

// String returns the policy name.
func (p ReplacementPolicy) String() string {
	switch p {
	case PolicyLRU:
		return "LRU"
	case PolicyClock:
		return "Clock"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", uint8(p))
	}
}

// ErrPoolExhausted is returned when every frame is pinned and a new page is
// requested.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// PoolStats counts buffer pool traffic. Hits+Misses equals the number of
// Fetch calls; Evictions counts frames recycled; Flushes counts dirty page
// writebacks (including those triggered by eviction).
type PoolStats struct {
	Hits, Misses, Evictions, Flushes uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 for an idle pool.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	id     PageID
	page   Page
	pins   int
	dirty  bool
	ref    bool          // Clock reference bit
	lruEnt *list.Element // position in LRU list (unpinned frames only)

	// WAL bookkeeping (zero when the pool has no log). unlogged marks a page
	// dirtied since the last LogGroup: its image is in no group yet, so it
	// must not reach the data file (no-steal). pageLSN is the end of the
	// group that logged its latest image; WAL-before-data: the frame may be
	// written back only once the log is durable through pageLSN.
	unlogged bool
	pageLSN  LSN
}

// BufferPool caches pages of a Pager in a fixed number of frames with
// pin/unpin semantics. All methods are safe for concurrent use; a pinned
// page's bytes may be read or mutated by the pinning goroutine until Unpin.
// One mutex guards the frame table, the replacement state and the counters.
type BufferPool struct {
	mu       sync.Mutex
	pager    Pager
	wal      *WAL
	capacity int
	policy   ReplacementPolicy
	frames   map[PageID]*frame
	lru      *list.List // front = most recent; holds PageIDs of unpinned frames
	clock    []PageID   // clock ring (lazy compaction)
	hand     int
	unlogged []*frame // frames marked unlogged, in first-dirtied order
	stats    PoolStats
}

// NewBufferPool wraps pager with a pool of capacity frames using the given
// replacement policy. A non-nil wal turns on write-ahead logging: LogGroup
// logs the pages dirtied since the last group, and eviction and flushes
// write a page back only once the log is durable through its latest image.
// It panics on a non-positive capacity: pool sizing is a construction-time
// decision.
func NewBufferPool(pager Pager, capacity int, policy ReplacementPolicy, wal *WAL) *BufferPool {
	if capacity <= 0 {
		panic("storage: buffer pool capacity must be positive")
	}
	return &BufferPool{
		pager:    pager,
		wal:      wal,
		capacity: capacity,
		policy:   policy,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
}

// Stats returns a snapshot of the pool counters.
func (b *BufferPool) Stats() PoolStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Capacity returns the number of frames.
func (b *BufferPool) Capacity() int { return b.capacity }

// Policy returns the replacement policy.
func (b *BufferPool) Policy() ReplacementPolicy { return b.policy }

// Allocate creates a new page through the pool: it is allocated in the pager
// and immediately cached and pinned. Callers must Unpin it.
func (b *BufferPool) Allocate() (PageID, *Page, error) {
	id, err := b.pager.Allocate()
	if err != nil {
		return 0, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	f, err := b.allocFrame(id)
	if err != nil {
		return 0, nil, err
	}
	f.page.InitPage()
	f.dirty = true
	b.pin(f)
	return id, &f.page, nil
}

// NumPages reports the page count of the underlying pager.
func (b *BufferPool) NumPages() uint32 { return b.pager.NumPages() }

// Flush writes every dirty frame back to the pager without evicting.
// Callers must have quiesced writers (geodb holds its write lock): every
// group is logged, so nothing here can steal an uncommitted page.
func (b *BufferPool) Flush() error { return b.flush(false) }

// FlushSettled writes back every dirty frame that is unpinned and logged.
// It is the fuzzy first pass of an incremental checkpoint: it runs
// concurrently with writers, shrinking the residue the quiesced second pass
// (Flush under the database write lock) must handle. Pinned or unlogged
// frames are skipped, not errors.
func (b *BufferPool) FlushSettled() error { return b.flush(true) }

// Close flushes dirty pages and closes the pager.
func (b *BufferPool) Close() error {
	if err := b.Flush(); err != nil {
		_ = b.pager.Close()
		return err
	}
	return b.pager.Close()
}

// Fetch pins the page and returns a pointer to its in-pool bytes. The caller
// must Unpin with the same id exactly once, marking whether it mutated the
// page.
func (b *BufferPool) Fetch(id PageID) (*Page, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.frames[id]; ok {
		b.stats.Hits++
		mPoolHits.Inc()
		b.pin(f)
		return &f.page, nil
	}
	b.stats.Misses++
	mPoolMisses.Inc()
	f, err := b.allocFrame(id)
	if err != nil {
		return nil, err
	}
	if err := b.pager.ReadPage(id, &f.page); err != nil {
		delete(b.frames, id)
		return nil, err
	}
	b.pin(f)
	return &f.page, nil
}

// Unpin releases one pin on the page. dirty marks the page as modified so
// eviction or Flush writes it back; with a log it also marks the page
// unlogged, so the next LogGroup logs its image.
func (b *BufferPool) Unpin(id PageID, dirty bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of uncached page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	if dirty && b.wal != nil && !f.unlogged {
		f.unlogged = true
		b.unlogged = append(b.unlogged, f)
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.ref = true
		if b.policy == PolicyLRU {
			f.lruEnt = b.lru.PushFront(id)
		}
	}
	return nil
}

// LogGroup closes one group: every page dirtied since the last LogGroup
// goes to the log once, with its current image, in one WAL.AppendGroup. It
// returns the group end, the LSN a committer waits on before acknowledging,
// and stamps it as each logged frame's pageLSN. The caller must have
// finished mutating the group's pages (geodb calls it under its write
// lock). On error the pages stay unlogged and go with the next group. A
// pool without a log returns 0.
func (b *BufferPool) LogGroup() (LSN, error) {
	if b.wal == nil {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	pages := make([]PageImage, len(b.unlogged))
	for i, f := range b.unlogged {
		pages[i] = PageImage{ID: f.id, Page: &f.page}
	}
	end, err := b.wal.AppendGroup(pages)
	if err != nil {
		return 0, err
	}
	for _, f := range b.unlogged {
		f.unlogged = false
		f.pageLSN = end
	}
	clear(b.unlogged)
	b.unlogged = b.unlogged[:0]
	return end, nil
}

// pin marks a frame in use, removing it from the eviction structures.
func (b *BufferPool) pin(f *frame) {
	f.pins++
	f.ref = true
	if f.pins == 1 && f.lruEnt != nil {
		b.lru.Remove(f.lruEnt)
		f.lruEnt = nil
	}
}

// allocFrame finds or evicts a frame for page id and registers it (page
// bytes unfilled).
func (b *BufferPool) allocFrame(id PageID) (*frame, error) {
	if len(b.frames) >= b.capacity {
		if err := b.evict(); err != nil {
			return nil, err
		}
	}
	f := &frame{id: id}
	b.frames[id] = f
	if b.policy == PolicyClock {
		b.clock = append(b.clock, id)
	}
	return f, nil
}

// evict drops one unpinned frame. The no-steal rule: an unlogged frame is
// never a victim, because its image is in no group yet and a stolen page
// would leave the data file holding half a mutation with no durable image
// to redo or discard it from.
func (b *BufferPool) evict() error {
	switch b.policy {
	case PolicyLRU:
		for e := b.lru.Back(); e != nil; e = e.Prev() {
			id := e.Value.(PageID)
			f := b.frames[id]
			if f == nil || f.pins > 0 || f.unlogged {
				continue
			}
			b.lru.Remove(e)
			return b.dropFrame(f)
		}
		return ErrPoolExhausted
	case PolicyClock:
		// Two full sweeps: the first clears reference bits, the second
		// must find a victim unless everything is pinned.
		for sweep := 0; sweep < 2*len(b.clock)+1; sweep++ {
			if len(b.clock) == 0 {
				break
			}
			b.hand %= len(b.clock)
			id := b.clock[b.hand]
			f, ok := b.frames[id]
			if !ok {
				// Stale ring entry from an earlier eviction; compact.
				b.clock = append(b.clock[:b.hand], b.clock[b.hand+1:]...)
				continue
			}
			if f.pins > 0 || f.unlogged {
				b.hand++
				continue
			}
			if f.ref {
				f.ref = false
				b.hand++
				continue
			}
			b.clock = append(b.clock[:b.hand], b.clock[b.hand+1:]...)
			return b.dropFrame(f)
		}
		return ErrPoolExhausted
	default:
		return fmt.Errorf("storage: unknown replacement policy %v", b.policy)
	}
}

func (b *BufferPool) dropFrame(f *frame) error {
	if f.dirty {
		if b.wal != nil {
			// WAL-before-data: the page's latest logged image must be
			// durable before the data file can change under it.
			if err := b.wal.WaitDurable(f.pageLSN); err != nil {
				return fmt.Errorf("storage: wal sync before writeback of page %d: %w", f.id, err)
			}
		}
		if err := b.pager.WritePage(f.id, &f.page); err != nil {
			return fmt.Errorf("storage: writeback of page %d: %w", f.id, err)
		}
		b.stats.Flushes++
		mPoolFlushes.Inc()
	}
	delete(b.frames, f.id)
	b.stats.Evictions++
	mPoolEvictions.Inc()
	return nil
}

func (b *BufferPool) flush(settledOnly bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.frames {
		if !f.dirty {
			continue
		}
		if settledOnly && (f.pins > 0 || f.unlogged) {
			// A pinned frame may be mid-mutation by its pinning goroutine and
			// an unlogged frame is no-steal; the quiesced second pass of the
			// checkpoint picks both up.
			continue
		}
		if b.wal != nil {
			if err := b.wal.WaitDurable(f.pageLSN); err != nil {
				return fmt.Errorf("storage: wal sync before flush of page %d: %w", f.id, err)
			}
		}
		if err := b.pager.WritePage(f.id, &f.page); err != nil {
			return fmt.Errorf("storage: flush page %d: %w", f.id, err)
		}
		f.dirty = false
		b.stats.Flushes++
		mPoolFlushes.Inc()
	}
	return nil
}
