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
// crash mid-schedule must preserve exactly the acknowledged history.
//
// In the crash oracle a seed names one interleaving: writers append only on
// their turn, and the turns are a seeded shuffle of every writer's rounds.
// Commits wait outside the turns, so concurrent commits still share an
// fsync; how they coalesce is up to the Go scheduler, but it never changes
// which bytes the log holds. One seed therefore writes one log, and a
// crashed run leaves a byte prefix of it.

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

// appendGroup appends writer wr's version v as one single-page group.
func appendGroup(w *WAL, wr, v int) (LSN, error) {
	return w.AppendGroup([]PageImage{{ID: gcPageID(wr), Page: gcPage(wr, v)}})
}

// TestWALGroupCommitCoalesces: with many committers contending on a slow
// log device, the leader/follower handoff must amortize fsyncs — strictly
// fewer syncs than commits — while every WaitDurable still returns only
// after its own group marker is durable.
func TestWALGroupCommitCoalesces(t *testing.T) {
	const writers = 8
	const rounds = 16
	logf := &slowLogFile{LogFile: NewMemLogFile(), delay: time.Millisecond}
	w, err := OpenWAL(logf)
	if err != nil {
		t.Fatal(err)
	}
	grouped0 := mWALGroupCommits.Value()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 0; v < rounds; v++ {
				end, err := appendGroup(w, i, v)
				if err != nil {
					errs[i] = err
					return
				}
				if err := w.WaitDurable(end); err != nil {
					errs[i] = err
					return
				}
				if durable := w.Durable(); durable < end {
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
// commit wait returned, and the highest version it ever attempted.
type gcAcked struct {
	acked     int
	attempted int
}

// gcSchedule is the seeded append order: writer wr appears once per round,
// and the order is a shuffle of every writer's rounds.
func gcSchedule(writers, rounds int, seed int64) []int {
	order := make([]int, 0, writers*rounds)
	for wr := 0; wr < writers; wr++ {
		for v := 0; v < rounds; v++ {
			order = append(order, wr)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runGroupCommitSchedule drives `writers` concurrent committers over a
// (possibly crash-injected) log, each appending only on its turns in
// gcSchedule's order and waiting for its commit outside the turn, until
// every turn is taken. A writer whose append or commit fails — the injected
// crash — leaves the schedule, and its remaining turns are skipped. It
// returns each writer's history (acked = -1 when nothing was acknowledged).
func runGroupCommitSchedule(t *testing.T, logf LogFile, writers, rounds int, seed int64) []gcAcked {
	t.Helper()
	w, err := OpenWAL(logf)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]gcAcked, writers)
	turn := make([]chan struct{}, writers)
	left := make([]chan struct{}, writers)
	appended := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		hist[i] = gcAcked{acked: -1, attempted: -1}
		turn[i], left[i] = make(chan struct{}), make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(left[i])
			for v := 0; v < rounds; v++ {
				<-turn[i]
				hist[i].attempted = v
				end, err := appendGroup(w, i, v)
				appended <- struct{}{} // the turn ends with the append
				if err != nil {
					return
				}
				if err := w.WaitDurable(end); err != nil {
					return
				}
				hist[i].acked = v
			}
		}(i)
	}
	for _, wr := range gcSchedule(writers, rounds, seed) {
		select {
		case turn[wr] <- struct{}{}:
			<-appended
		case <-left[wr]:
		}
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
	w, err := OpenWAL(logf)
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
// seeded schedules of contending committers are killed at points spread
// across the log's IO timeline (clean and torn), and recovery must surface
// exactly a marker-terminated prefix covering every acknowledged commit.
// Each seed's schedule is replayable: two runs without a crash write
// byte-identical logs, and every crashed run's recovered log is a byte
// prefix of that log.
func TestWALGroupCommitCrashOracle(t *testing.T) {
	const writers = 4
	const rounds = 20
	kills := []int{3, 9, 17, 31, 52, 77, 103, 139}
	for _, seed := range []int64{1, 1997} {
		var clean []byte
		for run := 0; run < 2; run++ {
			logf := NewMemLogFile()
			hist := runGroupCommitSchedule(t, logf, writers, rounds, seed)
			for i, h := range hist {
				if h.acked != rounds-1 {
					t.Fatalf("seed=%d: writer %d finished at v%d without a crash", seed, i, h.acked)
				}
			}
			verifyGroupCommitHistory(t, fmt.Sprintf("seed=%d no-crash", seed), logf, hist)
			if run == 0 {
				clean = logf.Bytes()
			} else if !bytes.Equal(logf.Bytes(), clean) {
				t.Fatalf("seed=%d: two runs without a crash wrote different logs", seed)
			}
		}
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
				if !bytes.HasPrefix(clean, logf.Bytes()) {
					t.Fatalf("%s: recovered log is not a prefix of the seed's log", label)
				}
			}
		}
	}
}
