package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Group-commit tests: concurrent committers must coalesce onto shared
// fsyncs without ever weakening the per-commit durability contract, and a
// crash mid-schedule must preserve exactly the acknowledged history. The
// seeds only pick sleep jitter; the Go scheduler picks the interleaving, so
// a seed does not replay a schedule. The oracles hold for any interleaving.
//
// Writers honour EndGroup's precondition the way geodb's write lock does:
// one shared mutex serializes each AppendPage+EndGroup pair, and Commit runs
// outside it so concurrent commits can still share an fsync.

// slowLogFile wraps a LogFile, counting Sync calls and delaying each one so
// concurrent committers pile up behind the in-flight fsync round.
type slowLogFile struct {
	LogFile
	delay time.Duration
	syncs atomic.Int64
}

func (f *slowLogFile) Sync() error {
	if f.delay > 0 {
		//vet:ignore testleak -- simulated device latency, not synchronization: the fsync must be slow for committers to pile up behind it
		time.Sleep(f.delay)
	}
	f.syncs.Add(1)
	return f.LogFile.Sync()
}

// gcPage builds the deterministic page image writer w commits at version v:
// every byte is a function of (w, v), so recovery can verify integrity and
// identify exactly which commit a surviving image belongs to.
func gcPage(w, v int) *Page {
	var p Page
	p.InitPage()
	payload := fmt.Sprintf("w%02d v%06d", w, v)
	if _, err := p.InsertRecord([]byte(payload)); err != nil {
		panic(err)
	}
	return &p
}

func gcPageID(w int) PageID { return PageID(100 + w) }

// appendGroup appends writer wr's version v as one group under mu, the lock
// that keeps concurrent writers' groups from interleaving in the log.
func appendGroup(mu *sync.Mutex, w *WAL, wr, v int) (LSN, error) {
	mu.Lock()
	defer mu.Unlock()
	if _, err := w.AppendPage(gcPageID(wr), gcPage(wr, v)); err != nil {
		return 0, err
	}
	return w.EndGroup()
}

// TestWALGroupCommitCoalesces: with many committers contending on a slow
// log device, the leader/follower handoff must amortize fsyncs — strictly
// fewer syncs than commits — while every Commit still returns only after
// its own group marker is durable.
func TestWALGroupCommitCoalesces(t *testing.T) {
	const writers = 8
	const rounds = 16
	logf := &slowLogFile{LogFile: NewMemLogFile(), delay: time.Millisecond}
	w, err := OpenWAL(logf, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grouped0 := mWALGroupCommits.Value()

	var wg sync.WaitGroup
	var groupMu sync.Mutex
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 0; v < rounds; v++ {
				end, err := appendGroup(&groupMu, w, i, v)
				if err != nil {
					errs[i] = err
					return
				}
				if err := w.Commit(); err != nil {
					errs[i] = err
					return
				}
				if durable := w.SyncedLSN(); durable < end {
					errs[i] = fmt.Errorf("commit of group %d acked at durable LSN %d", end, durable)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	commits := writers * rounds
	syncs := int(logf.syncs.Load())
	if syncs >= commits {
		t.Fatalf("%d fsyncs for %d commits: group commit did not coalesce", syncs, commits)
	}
	if grouped := mWALGroupCommits.Value() - grouped0; grouped == 0 {
		t.Fatal("no commit was ever satisfied by another committer's fsync")
	}
	t.Logf("%d commits rode %d fsyncs (%.1f commits/fsync)", commits, syncs, float64(commits)/float64(syncs))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// gcAcked is one writer's acknowledged history: the highest version whose
// Commit returned, and the highest version it ever attempted.
type gcAcked struct {
	acked     int
	attempted int
}

// runGroupCommitSchedule drives `writers` concurrent committers over a
// crash-injected log with per-writer sleep jitter drawn from seed, until
// each finishes `rounds` commits or the injected crash kills the log. It
// returns each writer's history (acked = -1 when nothing was acknowledged).
func runGroupCommitSchedule(t *testing.T, logf LogFile, writers, rounds int, seed int64) []gcAcked {
	t.Helper()
	w, err := OpenWAL(logf, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]gcAcked, writers)
	var wg sync.WaitGroup
	var groupMu sync.Mutex
	for i := 0; i < writers; i++ {
		hist[i] = gcAcked{acked: -1, attempted: -1}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			for v := 0; v < rounds; v++ {
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				hist[i].attempted = v
				if _, err := appendGroup(&groupMu, w, i, v); err != nil {
					return
				}
				if err := w.Commit(); err != nil {
					return
				}
				hist[i].acked = v
			}
		}(i)
	}
	wg.Wait()
	return hist
}

// verifyGroupCommitHistory reopens the surviving log bytes and asserts the
// linearizability oracle: the durable log is a marker-terminated prefix in
// which every acknowledged commit appears with its exact page image, and
// nothing appears that was never attempted.
func verifyGroupCommitHistory(t *testing.T, label string, logf *MemLogFile, hist []gcAcked) {
	t.Helper()
	w, err := OpenWAL(logf, WALOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	recs, err := w.ReadFrom(0)
	if err != nil {
		t.Fatalf("%s: read recovered log: %v", label, err)
	}
	// Group shape: this workload commits one image per group, so the
	// recovered log must strictly alternate image, marker, image, marker...
	// — a trailing or interior imbalance means a group was half-recovered.
	wantImage := true
	recovered := map[int]int{}
	for i, r := range recs {
		if r.Checkpoint {
			t.Fatalf("%s: unexpected checkpoint marker at record %d", label, i)
		}
		if r.Commit == wantImage {
			t.Fatalf("%s: record %d breaks the image/marker alternation", label, i)
		}
		wantImage = !wantImage
		if r.Commit {
			continue
		}
		wr := int(r.Page) - 100
		if wr < 0 || wr >= len(hist) {
			t.Fatalf("%s: record %d is for page %d, owned by no writer", label, i, r.Page)
		}
		// The image must be byte-identical to an attempted version, and a
		// writer's versions must appear in append order.
		lo := 0
		if v, ok := recovered[wr]; ok {
			lo = v + 1
		}
		matched := -1
		for cand := lo; cand <= hist[wr].attempted; cand++ {
			if bytes.Equal(r.Data, gcPage(wr, cand)[:]) {
				matched = cand
				break
			}
		}
		if matched < 0 {
			t.Fatalf("%s: record %d (writer %d) matches no attempted page image", label, i, wr)
		}
		recovered[wr] = matched
	}
	if !wantImage {
		t.Fatalf("%s: recovered log ends inside a group (trailing page image)", label)
	}
	for wr, h := range hist {
		if h.acked < 0 {
			continue
		}
		if got, ok := recovered[wr]; !ok || got < h.acked {
			t.Fatalf("%s: writer %d acked v%d but recovery surfaced v%d",
				label, wr, h.acked, got)
		}
	}
}

// TestWALGroupCommitCrashOracle is the concurrent-committer crash matrix:
// jittered schedules of contending committers are killed at points spread
// across the log's IO timeline (clean and torn), and recovery must surface
// exactly a marker-terminated prefix covering every acknowledged commit.
func TestWALGroupCommitCrashOracle(t *testing.T) {
	const writers = 4
	const rounds = 20
	kills := []int{3, 9, 17, 31, 52, 77, 103, 139}
	for _, seed := range []int64{1, 1997} {
		for _, torn := range []bool{false, true} {
			for _, k := range kills {
				label := fmt.Sprintf("seed=%d kill@%d torn=%v", seed, k, torn)
				crash := &Crasher{KillAt: k, Torn: torn}
				logf := NewMemLogFile()
				hist := runGroupCommitSchedule(t, NewCrashLogFile(logf, crash), writers, rounds, seed)
				if !crash.Crashed() {
					t.Fatalf("%s: schedule finished before the kill point", label)
				}
				verifyGroupCommitHistory(t, label, logf, hist)
			}
		}
	}
	// And one full run with no crash: everything acked, everything recovered.
	logf := NewMemLogFile()
	hist := runGroupCommitSchedule(t, logf, writers, rounds, 7)
	for i, h := range hist {
		if h.acked != rounds-1 {
			t.Fatalf("writer %d finished at v%d without a crash", i, h.acked)
		}
	}
	verifyGroupCommitHistory(t, "no-crash", logf, hist)
}
