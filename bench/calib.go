package main

// Host speed calibration. The benchmark's host is shared with other tenants:
// on the 2-vCPU VM the baseline comes from, a fixed loop's speed drifts by
// 10-30% from one second to the next and up to twofold between runs, and CPU
// time per operation drifts with it (the host is slower, no time is stolen). So the
// load pauses every sliceLoad for a fixed reference loop, and each wall-clock
// end-to-end metric is scaled by the speed measured beside it: it reads as it
// would on a host where the reference runs at refNominal units per second.
// The reference uses only the standard library and allocates nothing, so no
// change to the program can move it.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	sliceLoad = 250 * time.Millisecond // load between two reference measurements
	refRun    = 50 * time.Millisecond  // one reference measurement
	// refNominal is about the median reference speed, in units per second
	// over all CPUs, on the 2-vCPU VM the baseline was measured on. Scaled
	// metrics read in milliseconds and seconds of a host running that fast.
	refNominal = 325000.0
)

// refLoop is the reference work: pointer chasing through a random cycle over
// 4 MiB, random reads, integer formatting, sorting and hashing, the kinds of
// work an interaction is made of. The 4 MiB live outside the Go heap, so the
// reference neither grows the heap the benchmark reports nor changes how
// often the program's collector runs.
type refLoop struct {
	next          []uint32 // a random cycle: next[i] follows i
	nums, scratch []int
	buf           []byte
	pos           uint32
	x             uint64
	sink          uint64
}

const refWords = 1 << 20

func newRefLoop(seed int64) (*refLoop, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference loop memory: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	r := &refLoop{next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords),
		nums: make([]int, 256), scratch: make([]int, 256), buf: make([]byte, 0, 512), x: uint64(seed)}
	// Sattolo's shuffle of the identity makes one cycle through every word.
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	for i := refWords - 1; i > 0; i-- {
		j := rng.Intn(i)
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	for i := range r.nums {
		r.nums[i] = rng.Intn(1 << 20)
	}
	return r, nil
}

// unit does one unit of reference work.
func (r *refLoop) unit() {
	p := r.pos
	for i := 0; i < 64; i++ {
		p = r.next[p]
	}
	r.pos = p
	var s uint64
	for i := 0; i < 64; i++ {
		r.x = r.x*6364136223846793005 + 1442695040888963407
		s += uint64(r.next[r.x>>44])
	}
	b := r.buf[:0]
	for i := 0; i < 16; i++ {
		b = strconv.AppendUint(b, r.x>>uint(i*3), 10)
		b = append(b, ',')
	}
	r.buf = b
	copy(r.scratch, r.nums)
	slices.Sort(r.scratch)
	h := sha256.Sum256(b)
	r.sink += s + uint64(p) + uint64(h[0]) + uint64(r.scratch[0])
}

// host measures the host's speed with one reference loop per CPU.
type host struct{ loops []*refLoop }

func newHost() (*host, error) {
	h := &host{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		l, err := newRefLoop(int64(i + 1))
		if err != nil {
			return nil, err
		}
		h.loops = append(h.loops, l)
	}
	return h, nil
}

// speed runs the reference loops on every CPU for refRun and returns their
// speed as a share of refNominal.
func (h *host) speed() float64 {
	var wg sync.WaitGroup
	counts := make([]int, len(h.loops))
	t0 := time.Now()
	for i, l := range h.loops {
		wg.Add(1)
		go func(i int, l *refLoop) {
			defer wg.Done()
			for n := 0; ; n++ {
				if n%64 == 0 && time.Since(t0) >= refRun {
					counts[i] = n
					return
				}
				l.unit()
			}
		}(i, l)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(t0).Seconds() / refNominal
}

// mark is one reference measurement during a load: the pause it took, in
// offsets from the load's start, and the speed it measured.
type mark struct {
	from, to time.Duration
	speed    float64
}

// pacer pauses a load for the reference loop every sliceLoad. Load
// goroutines hold it shared for each operation, so a pause waits for the
// operations in flight and starts no new one. Its load clock stops during
// pauses, so an open-loop schedule on it does not fall behind by them.
type pacer struct {
	start time.Time
	mu    sync.RWMutex

	clock    sync.Mutex // guards the fields below
	paused   time.Duration
	pausedAt time.Time // start of the pause in progress, or zero
	marks    []mark
}

func newPacer(start time.Time) *pacer { return &pacer{start: start} }

func (p *pacer) enter() { p.mu.RLock() }
func (p *pacer) exit()  { p.mu.RUnlock() }

// loadNow is the time since the load's start, less the pauses.
func (p *pacer) loadNow() time.Duration {
	p.clock.Lock()
	defer p.clock.Unlock()
	now := time.Now()
	d := now.Sub(p.start) - p.paused
	if !p.pausedAt.IsZero() {
		d -= now.Sub(p.pausedAt)
	}
	return d
}

// run measures the speed at the load's start and then every sliceLoad until
// ctx ends.
func (p *pacer) run(ctx context.Context, h *host) {
	for {
		p.mu.Lock()
		at := time.Now()
		p.clock.Lock()
		p.pausedAt = at
		p.clock.Unlock()
		sp := h.speed()
		end := time.Now()
		p.clock.Lock()
		p.paused += end.Sub(at)
		p.pausedAt = time.Time{}
		p.marks = append(p.marks, mark{from: at.Sub(p.start), to: end.Sub(p.start), speed: sp})
		p.clock.Unlock()
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(sliceLoad):
		}
	}
}

// speeds returns the reference measurements taken so far.
func (p *pacer) speeds() []mark {
	p.clock.Lock()
	defer p.clock.Unlock()
	return append([]mark(nil), p.marks...)
}

// speedAt is the host's speed at offset t: the mean of the measurements
// just before and just after it, or the nearer one at either end.
func speedAt(marks []mark, t time.Duration) float64 {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].from >= t })
	switch {
	case len(marks) == 0:
		return 1
	case i == 0:
		return marks[0].speed
	case i == len(marks):
		return marks[i-1].speed
	}
	return (marks[i-1].speed + marks[i].speed) / 2
}
