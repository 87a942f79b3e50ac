// Write-ahead logging. The WAL is a redo-only log of full page images. The
// unit it accepts is a group — one mutation or one transaction: AppendGroup
// appends the after-image of every page the group dirtied and then a commit
// marker, all under one hold of the log lock, so no other group's records
// can interleave. The buffer pool is its only caller (BufferPool.LogGroup),
// and a committer acknowledges once WaitDurable covers the group's marker.
// The pool also enforces WAL-before-data: a dirty page is never written
// back to the pager until the log covering its latest image is synced, so
// any torn or lost data-page write has a durable image to redo from.
// Checkpoints flush every dirty page, sync the pager, and truncate the log,
// which bounds replay at the next Open to the mutations since the last
// checkpoint (DESIGN.md §11).
//
// Commit durability is group commit (DESIGN.md §15): concurrent committers
// do not each fsync. The first committer to find no fsync in flight becomes
// the leader, captures the current log tail as its goal, releases the lock,
// and syncs; everyone else parks on a condition variable. When the leader's
// fsync lands it covers every record appended before it started — one disk
// flush acknowledges the whole group of parked committers at once. A
// committer whose records landed after the leader captured its goal simply
// leads (or joins) the next round. Appends proceed concurrently with the
// in-flight fsync, which is what lets durable write throughput scale with
// the number of writers instead of serializing behind the log mutex. The
// tail a round captures is read under the same lock AppendGroup holds, so
// every durable LSN is a group end: the durable log is always a prefix of
// whole groups.
//
// Record framing, little-endian:
//
//	[0:4)   CRC32 (Castagnoli) over bytes [4:17+len)
//	[4:8)   uint32 payload length
//	[8:16)  uint64 LSN
//	[16]    record type (recPageImage, recCheckpoint, recCommit)
//	[17:..) payload
//
// Page-image payloads are a uint32 page id followed by the PageSize image.
// Commit markers (recCommit, empty payload) terminate one group's run of
// page images, and recovery treats any trailing records after the last
// marker as an unfinished group and discards them — an acknowledged commit
// is exactly a group whose marker reached the disk. LSNs increase strictly
// within a log generation; a decoder that sees a CRC mismatch, an
// impossible length, or a non-monotonic LSN treats the rest of the log as a
// torn tail and truncates it — crash mid-append must never corrupt
// recovery, only lose the unacknowledged tail.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/obs"
)

// LSN is a log sequence number: strictly increasing within a log generation
// (truncation starts a new generation; the counter itself never goes back
// within one process lifetime).
type LSN uint64

// WAL record types.
const (
	recPageImage  byte = 1
	recCheckpoint byte = 2
	recCommit     byte = 3
)

const (
	walHeaderSize = 17
	// maxWALPayload bounds decoded payload lengths: the largest legitimate
	// record is a page image (4-byte page id + page bytes). Anything longer
	// is a corrupt length field, not a record.
	maxWALPayload = 4 + PageSize
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL traffic mirrored into the process-wide metrics registry.
var (
	mWALAppends     = obs.Default().Counter("gis_wal_appends_total")
	mWALSyncs       = obs.Default().Counter("gis_wal_syncs_total")
	mWALReplayed    = obs.Default().Counter("gis_wal_replayed_records_total")
	mWALCheckpoints = obs.Default().Counter("gis_wal_checkpoints_total")
	mWALTruncations = obs.Default().Counter("gis_wal_truncations_total")
	// mWALFsyncSeconds times every physical fsync of the log file — the
	// dominant term in acknowledged-mutation latency, so the stats verb
	// surfaces its p50/p95/p99.
	mWALFsyncSeconds = obs.Default().Histogram("gis_wal_fsync_seconds", obs.LatencyBuckets)
	// mWALGroupCommits counts commit waits that were satisfied by another
	// committer's fsync — the group-commit coalescing rate.
	mWALGroupCommits = obs.Default().Counter("gis_wal_group_commits_total")
)

// LogFile is the byte store under a WAL: a flat file the log appends to,
// reads back at recovery, and truncates at checkpoints. *os.File (via
// OpenLogFile) is the production implementation; MemLogFile backs tests and
// CrashLogFile injects crashes at every write and sync point.
type LogFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// osLogFile adapts *os.File to LogFile (Size via Stat).
type osLogFile struct {
	*os.File
}

func (f osLogFile) Size() (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// OpenLogFile opens (creating if absent) a WAL file at path.
func OpenLogFile(path string) (LogFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal file: %w", err)
	}
	return osLogFile{f}, nil
}

// WAL is a redo write-ahead log over a LogFile. All methods are safe for
// concurrent use.
type WAL struct {
	mu       sync.Mutex
	syncCond *sync.Cond // broadcast when synced advances or the leader slot frees
	syncing  bool       // a leader's fsync is in flight (mu released around it)
	f        LogFile
	off      int64 // append offset
	nextLSN  LSN
	// tail is the LSN of the last group end: a commit or checkpoint marker.
	// It moves only when a whole group is in the log, so the goal a sync
	// round captures, and with it every durable LSN, is a group end.
	tail      LSN
	synced    LSN // LSN through which the log is durable
	onAppend  func(Record)
	onDurable func(LSN)
}

// PageImage is one page's after-image in a group handed to AppendGroup.
type PageImage struct {
	ID   PageID
	Page *Page
}

// Record is one log record as a log consumer — the replication ship loop —
// sees it: the LSN, whether it is a checkpoint or commit marker, and for
// page images the page id plus the full after-image. Data is owned by the
// receiver.
type Record struct {
	LSN        LSN
	Checkpoint bool
	Commit     bool
	Page       PageID
	Data       []byte // PageSize after-image; nil for markers
}

func toRecord(r walRecord) Record {
	switch r.typ {
	case recCheckpoint:
		return Record{LSN: r.lsn, Checkpoint: true}
	case recCommit:
		return Record{LSN: r.lsn, Commit: true}
	}
	return Record{
		LSN:  r.lsn,
		Page: PageID(binary.LittleEndian.Uint32(r.payload[0:4])),
		Data: r.payload[4:],
	}
}

// OpenWAL positions a WAL at the tail of f. Besides the torn-tail
// truncation, it discards any trailing records past the last commit or
// checkpoint marker: those belong to a group whose commit never reached the
// disk, and replaying half a mutation would break group atomicity. It does
// not replay: callers that may hold acknowledged-but-unapplied mutations
// must call Replay (and normally checkpoint) before appending. An empty
// file starts at LSN 1.
func OpenWAL(f LogFile) (*WAL, error) {
	w := &WAL{f: f, nextLSN: 1}
	w.syncCond = sync.NewCond(&w.mu)
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("storage: wal size: %w", err)
	}
	if size > 0 {
		data, err := readFull(f, size)
		if err != nil {
			return nil, err
		}
		recs, _ := scanWAL(data)
		// Keep only the prefix ending at the last group marker; anything
		// after it is an unfinished group, indistinguishable in outcome from
		// a torn tail.
		keep, valid := 0, 0
		off := 0
		for i, r := range recs {
			off += walHeaderSize + len(r.payload)
			if r.typ != recPageImage {
				keep, valid = i+1, off
			}
		}
		recs = recs[:keep]
		w.off = int64(valid)
		if len(recs) > 0 {
			last := recs[len(recs)-1].lsn
			w.nextLSN = last + 1
			w.tail = last
			w.synced = last // it is on stable storage by definition
		}
		if int64(valid) < size {
			// Torn tail or unfinished group from a crash: discard it now so
			// later appends never interleave with garbage.
			if err := f.Truncate(int64(valid)); err != nil {
				return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
			}
			mWALTruncations.Inc()
		}
	}
	return w, nil
}

func readFull(f LogFile, size int64) ([]byte, error) {
	data := make([]byte, size)
	n, err := f.ReadAt(data, 0)
	if int64(n) != size && err != nil {
		return nil, fmt.Errorf("storage: read wal: %w", err)
	}
	return data[:n], nil
}

// walRecord is one decoded log record.
type walRecord struct {
	lsn     LSN
	typ     byte
	payload []byte
}

// scanWAL decodes records from data until the first torn or corrupt one,
// returning the decoded prefix and how many bytes of data it covers.
// Corruption past the valid prefix is indistinguishable from a crash
// mid-append, so the scanner never errors: it just stops.
func scanWAL(data []byte) (recs []walRecord, valid int) {
	off := 0
	var prev LSN
	for off+walHeaderSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if length > maxWALPayload || off+walHeaderSize+length > len(data) {
			break
		}
		end := off + walHeaderSize + length
		sum := binary.LittleEndian.Uint32(data[off : off+4])
		if crc32.Checksum(data[off+4:end], crcTable) != sum {
			break
		}
		lsn := LSN(binary.LittleEndian.Uint64(data[off+8 : off+16]))
		if lsn <= prev {
			break // stale bytes from an earlier generation, not a record
		}
		typ := data[off+16]
		if typ != recPageImage && typ != recCheckpoint && typ != recCommit {
			break
		}
		if typ == recPageImage && length != 4+PageSize {
			break
		}
		if typ != recPageImage && length != 0 {
			break
		}
		recs = append(recs, walRecord{lsn: lsn, typ: typ, payload: data[off+walHeaderSize : end]})
		prev = lsn
		off = end
	}
	return recs, off
}

// encodeRecord frames one record.
func encodeRecord(lsn LSN, typ byte, payload []byte) []byte {
	buf := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(lsn))
	buf[16] = typ
	copy(buf[walHeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], crcTable))
	return buf
}

// AppendGroup logs one group: the after-image of every page in pages, in
// order, then a commit marker, under one hold of the log lock. It returns
// the marker's LSN, the group end a committer passes to WaitDurable before
// acknowledging. Recovery applies the group if and only if its marker
// reached the disk, so a crash mid-group loses the whole group and nothing
// else. The images are copied before AppendGroup returns. An empty group
// appends nothing and returns the last group end.
func (w *WAL) AppendGroup(pages []PageImage) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(pages) == 0 {
		return w.tail, nil
	}
	for _, pi := range pages {
		payload := make([]byte, 4+PageSize)
		binary.LittleEndian.PutUint32(payload[0:4], uint32(pi.ID))
		copy(payload[4:], pi.Page[:])
		if _, err := w.appendLocked(recPageImage, payload); err != nil {
			return 0, err
		}
	}
	end, err := w.appendLocked(recCommit, nil)
	if err != nil {
		return 0, err
	}
	w.tail = end
	return end, nil
}

func (w *WAL) appendLocked(typ byte, payload []byte) (LSN, error) {
	lsn := w.nextLSN
	buf := encodeRecord(lsn, typ, payload)
	if _, err := w.f.WriteAt(buf, w.off); err != nil {
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	w.off += int64(len(buf))
	w.nextLSN++
	mWALAppends.Inc()
	if w.onAppend != nil {
		w.onAppend(toRecord(walRecord{lsn: lsn, typ: typ, payload: append([]byte(nil), payload...)}))
	}
	return lsn, nil
}

// OnAppend registers fn to observe every record the moment it is appended,
// in LSN order with no gaps (checkpoint and commit markers included). fn
// runs under the WAL lock and must not block or call back into the WAL; the
// Data slice is the observer's to keep.
func (w *WAL) OnAppend(fn func(Record)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onAppend = fn
}

// OnDurable registers fn to observe every durable-LSN advance (the record
// with that LSN, and everything before it, is on stable storage). fn runs
// under the WAL lock and must not block or call back into the WAL.
func (w *WAL) OnDurable(fn func(LSN)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onDurable = fn
}

// WaitDurable blocks until the log is durable through at least lsn,
// joining (or leading) the in-flight group commit. It is both the commit
// point — a committer waits on its group end — and the WAL-before-data gate
// the buffer pool passes before writing back a page whose latest image is
// lsn. Already-durable LSNs are free.
func (w *WAL) WaitDurable(lsn LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitDurableLocked(lsn)
}

// waitDurableLocked is the group-commit core: callers block until the log
// is durable through target. The first caller to find no fsync in flight
// becomes the leader — it captures the current tail as its goal, releases
// the lock so appends and new committers keep flowing, syncs, and then
// publishes the new durable LSN to every parked follower. A follower whose
// target is not covered by the round it slept through leads the next one.
func (w *WAL) waitDurableLocked(target LSN) error {
	led, waited := false, false
	for w.synced < target {
		if w.syncing {
			waited = true
			w.syncCond.Wait()
			continue
		}
		led = true
		if err := w.leadSyncRound(); err != nil {
			return err
		}
	}
	if waited && !led {
		mWALGroupCommits.Inc() // another committer's fsync covered us
	}
	return nil
}

// leadSyncRound runs one group-commit fsync round. The caller holds w.mu and
// found no round in flight; the round marks itself in flight, releases w.mu
// around the physical fsync — so appends and new committers keep flowing
// while the disk works — then reacquires it, publishes the new durable LSN,
// and wakes every parked follower. Returns with w.mu held either way.
func (w *WAL) leadSyncRound() error {
	w.syncing = true
	goal := w.tail
	sw := obs.Start(mWALFsyncSeconds)
	w.mu.Unlock()
	err := w.f.Sync()
	w.mu.Lock()
	sw.Stop()
	w.syncing = false
	if err == nil && goal > w.synced {
		w.advanceDurableLocked(goal)
	}
	w.syncCond.Broadcast()
	if err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	return nil
}

// advanceDurableLocked publishes a new durable LSN to the observer.
func (w *WAL) advanceDurableLocked(goal LSN) {
	w.synced = goal
	mWALSyncs.Inc()
	if w.onDurable != nil {
		w.onDurable(goal)
	}
}

// Durable reports the LSN through which the log is durable, always a group
// end. A replication primary only ever streams records at or below it, so
// a replica can never apply state the primary might lose in a crash.
func (w *WAL) Durable() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// ReadFrom decodes the records still present in the log with LSN >= from,
// in order. Checkpoints truncate the log, so records older than the last
// checkpoint are gone — a caller (the ship loop seeding its tail buffer, a
// replica catching up) that needs history from before the first returned
// record must fall back to a page snapshot.
func (w *WAL) ReadFrom(from LSN) ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := readFull(w.f, w.off)
	if err != nil {
		return nil, err
	}
	recs, _ := scanWAL(data)
	var out []Record
	for _, r := range recs {
		if r.lsn < from {
			continue
		}
		out = append(out, toRecord(r)) // aliases data, freshly read per call
	}
	return out, nil
}

// Replay applies every page image in the log, in order, through apply,
// then positions the WAL for appending. OpenWAL already discarded any torn
// tail or unfinished trailing group, so everything Replay sees belongs to a
// committed group. It returns how many page images were applied. Callers
// replay exactly once, right after OpenWAL, before any append.
func (w *WAL) Replay(apply func(id PageID, p *Page) error) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := readFull(w.f, w.off)
	if err != nil {
		return 0, err
	}
	recs, _ := scanWAL(data)
	n := 0
	for _, r := range recs {
		if r.typ != recPageImage {
			continue
		}
		id := PageID(binary.LittleEndian.Uint32(r.payload[0:4]))
		var p Page
		copy(p[:], r.payload[4:])
		if err := apply(id, &p); err != nil {
			return n, fmt.Errorf("storage: wal replay page %d (lsn %d): %w", id, r.lsn, err)
		}
		n++
		mWALReplayed.Inc()
	}
	return n, nil
}

// ReplayInto is Replay against a pager: pages past the pager's end are
// allocated, then overwritten with the logged image.
func (w *WAL) ReplayInto(pager Pager) (int, error) {
	return w.Replay(func(id PageID, p *Page) error {
		for pager.NumPages() <= uint32(id) {
			if _, err := pager.Allocate(); err != nil {
				return err
			}
		}
		return pager.WritePage(id, p)
	})
}

// Checkpoint truncates the log and stamps a durable checkpoint marker.
// Callers must have flushed every dirty page and synced the pager first,
// with mutations excluded until Checkpoint returns (geodb.DB.Checkpoint
// holds the database write lock across the flush+truncate pair): a page
// image appended after the flush but before the truncation would be
// discarded while its page is still dirty, losing the redo copy.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	w.off = 0
	mWALTruncations.Inc()
	// Stamp the new generation so even an untouched post-checkpoint log is
	// self-describing (and the decoder has a second record type to chew on).
	lsn, err := w.appendLocked(recCheckpoint, nil)
	if err != nil {
		return fmt.Errorf("storage: wal checkpoint marker: %w", err)
	}
	sw := obs.Start(mWALFsyncSeconds)
	//vet:ignore lockheld -- checkpoint barrier: the lock must pin the log tail until the marker is durable
	serr := w.f.Sync()
	sw.Stop()
	if serr != nil {
		return fmt.Errorf("storage: wal checkpoint sync: %w", serr)
	}
	w.tail = lsn
	w.advanceDurableLocked(lsn)
	mWALCheckpoints.Inc()
	// The marker is its own durable group. Committers parked on earlier
	// LSNs are satisfied by the truncation itself — their groups were
	// flushed into the data file before the log was cut — so wake them.
	w.syncCond.Broadcast()
	return nil
}

// Size reports the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Close makes the log durable through the last group and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.waitDurableLocked(w.tail); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}
