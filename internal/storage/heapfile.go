package storage

import (
	"errors"
	"fmt"
	"sync"
)

// RID identifies a record within a heap file: the page it lives on and its
// slot there. RIDs are stable across in-page compaction but not across
// delete+reinsert (the heap layer never moves live records between pages).
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// ErrTombstone is returned by Get for a deleted record.
var ErrTombstone = errors.New("storage: record deleted")

// HeapFile stores variable-length records in slotted pages behind a buffer
// pool. Its free-space map is one candidate page: an insert tries it, then
// the last page, then allocates a new page. A successful insert or delete
// makes its page the candidate, so appends fill the last page and churn —
// inserts beside deletes — reuses the room deletes free instead of growing
// the file.
type HeapFile struct {
	mu   sync.Mutex
	pool *BufferPool
	// candidate is the page id most likely to have room for the next
	// insert; a heuristic, not an invariant.
	candidate PageID
	haveCand  bool
}

// NewHeapFile creates a heap file over the pool. Existing pages of the
// pool's pager are treated as heap pages (a heap file owns its pager).
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool}
}

// Pool exposes the underlying buffer pool (for stats in experiments).
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// Insert stores data and returns its RID.
func (h *HeapFile) Insert(data []byte) (RID, error) {
	if len(data) > MaxRecordSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(data))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.haveCand {
		if rid, ok, err := h.tryInsert(h.candidate, data); err != nil {
			return RID{}, err
		} else if ok {
			return rid, nil
		}
		h.haveCand = false
	}
	// Probe the last page, then allocate.
	if n := h.pool.NumPages(); n > 0 {
		last := PageID(n - 1)
		if rid, ok, err := h.tryInsert(last, data); err != nil {
			return RID{}, err
		} else if ok {
			h.candidate, h.haveCand = last, true
			return rid, nil
		}
	}
	id, page, err := h.pool.Allocate()
	if err != nil {
		return RID{}, err
	}
	slot, err := page.InsertRecord(data)
	unpinErr := h.pool.Unpin(id, true)
	if err != nil {
		return RID{}, err
	}
	if unpinErr != nil {
		return RID{}, unpinErr
	}
	h.candidate, h.haveCand = id, true
	return RID{Page: id, Slot: uint16(slot)}, nil
}

func (h *HeapFile) tryInsert(id PageID, data []byte) (RID, bool, error) {
	page, err := h.pool.Fetch(id)
	if err != nil {
		return RID{}, false, err
	}
	slot, err := page.InsertRecord(data)
	if errors.Is(err, ErrPageFull) {
		if uerr := h.pool.Unpin(id, false); uerr != nil {
			return RID{}, false, uerr
		}
		return RID{}, false, nil
	}
	if err != nil {
		h.pool.Unpin(id, false)
		return RID{}, false, err
	}
	if err := h.pool.Unpin(id, true); err != nil {
		return RID{}, false, err
	}
	return RID{Page: id, Slot: uint16(slot)}, true, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	data, err := page.GetRecord(int(rid.Slot))
	if err != nil {
		if errors.Is(err, ErrNoRecord) {
			return nil, fmt.Errorf("%w at %s", ErrTombstone, rid)
		}
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Delete removes the record at rid and makes its page the next insert's
// candidate.
func (h *HeapFile) Delete(rid RID) error {
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = page.DeleteRecord(int(rid.Slot))
	if uerr := h.pool.Unpin(rid.Page, err == nil); uerr != nil && err == nil {
		err = uerr
	}
	if err == nil {
		h.mu.Lock()
		h.candidate, h.haveCand = rid.Page, true
		h.mu.Unlock()
	}
	return err
}

// Update replaces the record at rid in place. If the new payload no longer
// fits on its page the update fails with ErrPageFull; callers perform a
// delete+insert and refresh their indexes (the geodb layer does this).
func (h *HeapFile) Update(rid RID, data []byte) error {
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = page.UpdateRecord(int(rid.Slot), data)
	if uerr := h.pool.Unpin(rid.Page, err == nil); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// Scan calls fn for every live record in file order with a copy of its
// payload. Scanning stops early when fn returns false.
func (h *HeapFile) Scan(fn func(rid RID, data []byte) bool) error {
	n := h.pool.NumPages()
	for id := PageID(0); id < PageID(n); id++ {
		page, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		stop := false
		page.LiveRecords(func(slot int, data []byte) bool {
			buf := make([]byte, len(data))
			copy(buf, data)
			if !fn(RID{Page: id, Slot: uint16(slot)}, buf) {
				stop = true
				return false
			}
			return true
		})
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Len counts live records with a full scan. It is an O(pages) diagnostic,
// not a hot-path operation; layers above cache their own counts.
func (h *HeapFile) Len() (int, error) {
	count := 0
	err := h.Scan(func(RID, []byte) bool { count++; return true })
	return count, err
}
