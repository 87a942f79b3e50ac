package obs

import (
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), float64(workers*perWorker*5); math.Abs(got-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	// Upper bounds are inclusive: 0.5 and 1 land in le=1; 2 and 10 in
	// le=10; 50 in le=100; 1000 overflows to +Inf.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if got := snap.Mean(); math.Abs(got-1063.5/6) > 1e-9 {
		t.Errorf("mean = %g", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Inc()
	g.Dec()
	g.Set(7)
	h.Observe(1)
	Start(h).Stop()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metric handles must read as zero")
	}
}

func TestDiscardLoggerDropsEveryLevel(t *testing.T) {
	lg := DiscardLogger.With("conn", 1).WithGroup("g")
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelError} {
		if lg.Enabled(context.Background(), lv) {
			t.Errorf("discard logger enabled at %v", lv)
		}
	}
	lg.Error("dropped", "err", "boom")
	if err := lg.Handler().Handle(context.Background(), slog.Record{}); err != nil {
		t.Error(err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter should return the same handle for the same name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge should return the same handle for the same name")
	}
	h := r.Histogram("x", []float64{1, 2})
	if r.Histogram("x", []float64{9}) != h {
		t.Error("Histogram should return the first-created handle for the same name")
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{1})
	c.Add(3)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(4)
	h.Observe(2)
	r.Gauge("g").Set(9) // born after the first snapshot
	delta := r.Snapshot().Sub(before)
	if got := delta.Counters["c"]; got != 4 {
		t.Errorf("counter delta = %d, want 4", got)
	}
	if got := delta.Gauges["g"]; got != 9 {
		t.Errorf("gauge = %d, want current value 9", got)
	}
	hd := delta.Histograms["h"]
	if hd.Count != 1 || hd.Counts[0] != 0 || hd.Counts[1] != 1 {
		t.Errorf("histogram delta = %+v", hd)
	}
	if math.Abs(hd.Sum-2) > 1e-9 {
		t.Errorf("histogram delta sum = %g, want 2", hd.Sum)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`app_requests_total{op="get"}`).Add(2)
	r.Counter(`app_requests_total{op="put"}`).Add(1)
	r.Gauge("app_inflight").Set(3)
	h := r.Histogram("app_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE app_inflight gauge
app_inflight 3
# TYPE app_requests_total counter
app_requests_total{op="get"} 2
app_requests_total{op="put"} 1
# TYPE app_seconds histogram
app_seconds_bucket{le="0.1"} 1
app_seconds_bucket{le="1"} 2
app_seconds_bucket{le="+Inf"} 3
app_seconds_sum 5.55
app_seconds_count 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestDisabledPathZeroAlloc pins the tentpole requirement: with no span sink
// attached, every hot-path primitive allocates nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", LatencyBuckets)
	tr := NewTracer()
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		sw := Start(h)
		sw.Stop()
		sp := tr.Start("op")
		sp.Set("k", "v")
		sp.Child("sub").Finish()
		sp.Finish()
	}); n != 0 {
		t.Errorf("disabled-path allocs per op = %g, want 0", n)
	}
}
