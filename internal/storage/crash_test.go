package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"testing"
)

// The storage-level crash matrix. One deterministic workload of inserts,
// in-place updates and deletes runs over a heap file whose pager and log are
// both crash-injected. An enumeration pass counts every IO point the
// workload hits; the matrix then re-runs it once per point (and once more
// per point in torn-write mode), killing the store there, reopening the
// surviving bytes, and asserting that every acknowledged mutation recovered,
// no record is garbled, and replay stays bounded by the checkpoint interval.

const (
	crashOps        = 40
	crashKeySpace   = 16
	crashCkptEvery  = 7
	crashPoolCap    = 3
	crashPayloadLen = 800
)

// crashOp is one workload mutation: upsert key=version, or delete key.
type crashOp struct {
	key, version int
	del          bool
}

func (o crashOp) String() string {
	if o.del {
		return fmt.Sprintf("delete k%02d", o.key)
	}
	return fmt.Sprintf("put k%02d=v%03d", o.key, o.version)
}

// crashPayload renders a fixed-width record whose every byte is determined
// by (key, version), so any torn or garbled record is detectable.
// Fixed width keeps updates in place (no ErrPageFull relocation).
func crashPayload(key, version int) []byte {
	buf := make([]byte, crashPayloadLen)
	header := fmt.Sprintf("k%02d=v%03d;", key, version)
	copy(buf, header)
	for i := len(header); i < len(buf); i++ {
		buf[i] = byte('a' + (key+version+i)%23)
	}
	return buf
}

func parseCrashPayload(data []byte) (key, version int, err error) {
	if len(data) != crashPayloadLen {
		return 0, 0, fmt.Errorf("record length %d, want %d", len(data), crashPayloadLen)
	}
	if data[0] != 'k' || data[3] != '=' || data[4] != 'v' || data[8] != ';' {
		return 0, 0, fmt.Errorf("garbled header %q", data[:9])
	}
	key, err = strconv.Atoi(string(data[1:3]))
	if err != nil {
		return 0, 0, fmt.Errorf("garbled key %q", data[1:3])
	}
	version, err = strconv.Atoi(string(data[5:8]))
	if err != nil {
		return 0, 0, fmt.Errorf("garbled version %q", data[5:8])
	}
	if !bytes.Equal(data, crashPayload(key, version)) {
		return 0, 0, fmt.Errorf("k%02d=v%03d: payload bytes garbled", key, version)
	}
	return key, version, nil
}

// nextCrashOp picks the i-th mutation deterministically against the runner's
// view of live keys.
func nextCrashOp(i int, live map[int]int) crashOp {
	if i < crashKeySpace {
		return crashOp{key: i, version: i}
	}
	k := (i*7 + 3) % crashKeySpace
	if _, ok := live[k]; !ok {
		return crashOp{key: k, version: i}
	}
	if i%4 == 3 {
		return crashOp{key: k, del: true}
	}
	return crashOp{key: k, version: i}
}

func applyCrashOp(h *HeapFile, rids map[int]RID, op crashOp) error {
	if op.del {
		if err := h.Delete(rids[op.key]); err != nil {
			return err
		}
		delete(rids, op.key)
		return nil
	}
	if rid, ok := rids[op.key]; ok {
		return h.Update(rid, crashPayload(op.key, op.version))
	}
	rid, err := h.Insert(crashPayload(op.key, op.version))
	if err != nil {
		return err
	}
	rids[op.key] = rid
	return nil
}

// checkpointStore is the geodb checkpoint sequence at the storage level:
// flush every dirty page, sync the data file, then truncate the log.
func checkpointStore(pool *BufferPool, pager Pager, w *WAL) error {
	if err := pool.Flush(); err != nil {
		return err
	}
	if err := pager.Sync(); err != nil {
		return err
	}
	return w.Checkpoint()
}

// runCrashWorkload drives the full workload over the (possibly crash-
// injected) pager and log. Ops are committed in groups — mostly singletons,
// but every few iterations two ops share one WAL group, the storage-level
// shape of a geodb transaction — each group logged with LogGroup and
// acknowledged by one group-commit wait. It returns the acknowledged state —
// key→version as of the last acknowledged group — plus the ops of the group
// in flight when the crash hit, if any: an in-flight group may or may not
// have reached durability, but recovery must surface it atomically — all of
// its ops or none.
func runCrashWorkload(pager Pager, logf LogFile) (acked map[int]int, pending []crashOp, err error) {
	w, err := OpenWAL(logf)
	if err != nil {
		return nil, nil, err
	}
	pool := NewBufferPool(pager, crashPoolCap, PolicyLRU, w)
	h := NewHeapFile(pool)
	acked = map[int]int{}
	live := map[int]int{}
	rids := map[int]RID{}
	sinceCkpt := 0
	for i := 0; i < crashOps; {
		gsize := 1
		if i%5 == 4 { // deterministic multi-op groups: kill points mid-group
			gsize = 2
		}
		var group []crashOp
		for g := 0; g < gsize && i < crashOps; g++ {
			op := nextCrashOp(i, live)
			group = append(group, op)
			pending = group
			if err := applyCrashOp(h, rids, op); err != nil {
				return acked, pending, err
			}
			// Later ops in the group (and the op picker) see earlier ones.
			if op.del {
				delete(live, op.key)
			} else {
				live[op.key] = op.version
			}
			i++
		}
		end, err := pool.LogGroup()
		if err != nil {
			return acked, pending, err
		}
		if err := w.WaitDurable(end); err != nil {
			return acked, pending, err
		}
		// The group commit returned: every op in the group is acknowledged.
		for _, op := range group {
			if op.del {
				delete(acked, op.key)
			} else {
				acked[op.key] = op.version
			}
		}
		pending = nil
		sinceCkpt += len(group)
		if sinceCkpt >= crashCkptEvery {
			sinceCkpt = 0
			if err := checkpointStore(pool, pager, w); err != nil {
				return acked, nil, err
			}
		}
	}
	return acked, nil, nil
}

// applyOps returns base with ops applied — the state recovery must show if
// the in-flight group's commit marker reached the disk.
func applyOps(base map[int]int, ops []crashOp) map[int]int {
	out := make(map[int]int, len(base))
	for k, v := range base {
		out[k] = v
	}
	for _, op := range ops {
		if op.del {
			delete(out, op.key)
		} else {
			out[op.key] = op.version
		}
	}
	return out
}

func sameState(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// recoverAndVerify reopens the surviving bytes the way geodb.Open does —
// scan the log, discard any torn tail or unfinished group, redo every page
// image, checkpoint — and asserts the recovered heap holds exactly the
// acknowledged state, or (when a group was in flight at the kill) exactly
// the acknowledged state plus the whole in-flight group: group commit makes
// any partial outcome a recovery bug, not a tolerated ambiguity.
func recoverAndVerify(t *testing.T, label string, mem *MemPager, logf *MemLogFile, acked map[int]int, pending []crashOp) {
	t.Helper()
	w, err := OpenWAL(logf)
	if err != nil {
		t.Fatalf("%s: reopen wal: %v", label, err)
	}
	n, err := w.ReplayInto(mem)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	// Between checkpoints at most crashCkptEvery+1 ops land (a two-op group
	// can straddle the trigger), and an op dirties at most two pages.
	if bound := 2 * (crashCkptEvery + 1); n > bound {
		t.Fatalf("%s: replayed %d records; checkpoints every %d ops should bound replay to %d",
			label, n, crashCkptEvery, bound)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("%s: post-recovery checkpoint: %v", label, err)
	}

	pool := NewBufferPool(mem, 8, PolicyLRU, nil)
	h := NewHeapFile(pool)
	got := map[int]int{}
	err = h.Scan(func(rid RID, data []byte) bool {
		key, version, perr := parseCrashPayload(data)
		if perr != nil {
			t.Fatalf("%s: record %s did not survive intact: %v", label, rid, perr)
		}
		if _, dup := got[key]; dup {
			t.Fatalf("%s: key %d recovered twice", label, key)
		}
		got[key] = version
		return true
	})
	if err != nil {
		t.Fatalf("%s: post-recovery scan: %v", label, err)
	}

	if sameState(got, acked) {
		return
	}
	if pending != nil && sameState(got, applyOps(acked, pending)) {
		return // the in-flight group's marker reached the disk — all of it recovered
	}
	t.Fatalf("%s: recovered state %v is neither the acked state %v nor acked+pending group %v",
		label, got, acked, pending)
}

func TestStorageCrashMatrix(t *testing.T) {
	// Enumeration pass: an inert Crasher counts the workload's IO points,
	// and the completed store must recover cleanly even without a Close
	// (the tail since the last checkpoint comes back via replay).
	crash := &Crasher{}
	mem := NewMemPager()
	logf := NewMemLogFile()
	acked, pending, err := runCrashWorkload(NewCrashPager(mem, crash), NewCrashLogFile(logf, crash))
	if err != nil {
		t.Fatalf("enumeration run failed: %v", err)
	}
	if pending != nil {
		t.Fatalf("enumeration run left op %v unacknowledged", pending)
	}
	if len(acked) == 0 {
		t.Fatal("workload acknowledged nothing")
	}
	total := crash.Points()
	if total < crashOps {
		t.Fatalf("workload hit only %d IO points for %d ops — injection is not covering the store", total, crashOps)
	}
	t.Logf("workload spans %d IO points (%d acknowledged keys)", total, len(acked))
	recoverAndVerify(t, "no-crash", mem, logf, acked, nil)

	// The matrix: kill at every point, clean and torn.
	for _, torn := range []bool{false, true} {
		for k := 1; k <= total; k++ {
			crash := &Crasher{KillAt: k, Torn: torn}
			mem := NewMemPager()
			logf := NewMemLogFile()
			acked, pending, err := runCrashWorkload(NewCrashPager(mem, crash), NewCrashLogFile(logf, crash))
			if err == nil {
				t.Fatalf("kill@%d: workload finished without crashing", k)
			}
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("kill@%d torn=%v: workload failed with %v, want the injected crash", k, torn, err)
			}
			recoverAndVerify(t, fmt.Sprintf("kill@%d torn=%v", k, torn), mem, logf, acked, pending)
		}
	}
}
