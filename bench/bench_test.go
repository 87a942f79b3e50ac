package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/ui"
	"repro/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := percentile(xs, 0.99, 10)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond it)", p99, err)
	}
	if _, err := percentile(xs[:999], 0.99, 10); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if p50, err := percentile(xs[:21], 0.5, 10); err != nil || p50 != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", p50, err)
	}
	if _, err := percentile(nil, 0.5, 10); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "ui.class", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "wire.get_class", Start: 10, End: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "wire.call_method", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Trace: 1, Name: "render.text", Start: 90, End: 120},     // ends after 1
		{ID: 5, Parent: 2, Trace: 1, Name: "server.get_class", Start: 15, End: 25},
		{ID: 6, Parent: 5, Trace: 1, Name: "active.Get_Class", Start: 16, End: 18},
	}
	// Span 1 is covered on [10,50] and [90,100]: 50 of its 100 are its own.
	want := []int64{50, 10, 30, 30, 8, 2}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	self, roots := layerSplit(spans)
	if roots != 100 || self["wire"] != 40 || self["server"] != 8 || self["active"] != 2 {
		t.Fatalf("layer split %v over roots %d", self, roots)
	}
}

func TestTracedWindowKeepsWholeTreesAndOrphans(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Trace: 1, Name: "ui.schema", Start: 5, End: 15}, // ends before the window
		{ID: 2, Parent: 1, Trace: 1, Name: "wire.get_schema", Start: 6, End: 14},
		{ID: 3, Trace: 3, Name: "ui.connect", Start: 15, End: 22}, // a root, not an operation
		{ID: 4, Trace: 4, Name: "ui.class", Start: 18, End: 30},   // starts before the window: kept
		{ID: 5, Parent: 4, Trace: 4, Name: "wire.get_class", Start: 19, End: 29},
		{ID: 6, Trace: 6, Name: "active.Get_Value", Start: 24, End: 25}, // orphan
		{ID: 7, Trace: 7, Name: "edit.commit", Start: 25, End: 40},      // ends after the window
	}
	spans, ops := tr.window(20, 35)
	var ids []uint64
	for _, s := range spans {
		ids = append(ids, s.ID)
	}
	if ops != 1 || !reflect.DeepEqual(ids, []uint64{3, 4, 5, 6}) {
		t.Fatalf("window kept spans %v with %d ops; want [3 4 5 6] and 1 op", ids, ops)
	}
}

// stallingCommitter acknowledges every transaction at once except the
// third, which it holds for stall (none when zero).
type stallingCommitter struct {
	n     int
	stall time.Duration
}

func (c *stallingCommitter) CommitTxn(_ event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	c.n++
	if c.n == 3 {
		<-time.After(c.stall)
	}
	oids := make([]catalog.OID, len(ops))
	oids[1] = catalog.OID(1000 + c.n)
	return oids, nil
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	nw := &network{
		poles: []catalog.OID{1, 2}, suppliers: []catalog.OID{9},
		zones:     []geom.Rect{geom.R(0, 0, 100, 100)},
		poleAttrs: []string{"pole_type", "pole_location", "pole_historic"},
	}
	const period = 5 * time.Millisecond // 200 transactions per second
	cm := &stallingCommitter{stall: 12 * period}
	ctx, cancel := context.WithTimeout(context.Background(), 30*period)
	defer cancel()
	out := &tally{}
	var cur obs.SpanContext
	runEditor(ctx, cm, nil, &cur, newEditor(1, nw), int(time.Second/period), newPacer(time.Now()), out)
	if len(out.commits) < 6 {
		t.Fatalf("only %d commits in %v", len(out.commits), 30*period)
	}
	// The third transaction stalls; the fourth was due one period after it,
	// so it is sent about 11 periods late and its latency, counted from its
	// due time, carries that wait although the committer answered it at once.
	if got := out.commits[2].lat; got < 12*period {
		t.Fatalf("stalled commit latency %v, want at least %v", got, 12*period)
	}
	if late := out.late[3].lat; late < 10*period {
		t.Fatalf("generator was %v late after the stall, want at least %v", late, 10*period)
	}
	if got := out.commits[3].lat; got < out.late[3].lat {
		t.Fatalf("commit latency %v is shorter than its lateness %v", got, out.late[3].lat)
	}
	if late := out.late[0].lat; late > 5*period {
		t.Fatalf("generator %v late before any stall", late)
	}
}

func TestPausesDelayNoTransaction(t *testing.T) {
	h, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	nw := &network{poles: []catalog.OID{1, 2}, suppliers: []catalog.OID{9},
		zones: []geom.Rect{geom.R(0, 0, 100, 100)}, poleAttrs: []string{"pole_location"}}
	ctx, cancel := context.WithTimeout(context.Background(), 3*sliceLoad)
	defer cancel()
	pc := newPacer(time.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		pc.run(ctx, h)
	}()
	out := &tally{}
	var cur obs.SpanContext
	runEditor(ctx, &stallingCommitter{}, nil, &cur, newEditor(1, nw), 200, pc, out)
	<-done
	marks := pc.speeds()
	if len(marks) < 3 {
		t.Fatalf("%d reference measurements in %v, want at least 3", len(marks), 3*sliceLoad)
	}
	for _, mk := range marks {
		if mk.to-mk.from < refRun || mk.speed <= 0 {
			t.Fatalf("measurement %+v: shorter than %v or no speed", mk, refRun)
		}
	}
	// Each pause lasts refRun, 10 periods at 200/s. On the load clock the
	// schedule waits for it, so no commit is charged the pause.
	for i, c := range out.commits {
		if c.lat > refRun/2 {
			t.Fatalf("commit %d took %v from its due time: a pause was charged to it", i, c.lat)
		}
	}
	if paused := time.Since(pc.start) - pc.loadNow(); paused < time.Duration(len(marks))*refRun {
		t.Fatalf("load clock excluded %v for %d pauses of at least %v", paused, len(marks), refRun)
	}
}

func TestScalingByHostSpeed(t *testing.T) {
	const ms = time.Millisecond
	marks := []mark{
		{from: 0, to: 100 * ms, speed: 1},
		{from: 600 * ms, to: 700 * ms, speed: 0.5},
		{from: 1200 * ms, to: 1300 * ms, speed: 0.5},
	}
	// 100 operations of 2 ms in each stretch of load (0.5 s).
	var ss []sample
	for i := 0; i < 100; i++ {
		ss = append(ss, sample{end: 100*ms + time.Duration(i)*5*ms, lat: 2 * ms},
			sample{end: 700*ms + time.Duration(i)*5*ms, lat: 2 * ms})
	}
	// Speeds average over a stretch's two ends: 0.75, then 0.5.
	if got := ratePerS(ss, 0, 1300*ms, marks); math.Abs(got-(200/0.75+400)/2) > 1e-9 {
		t.Fatalf("scaled rate %v, want the median of 200/0.75 and 200/0.5 per second", got)
	}
	if got := ratePerS(ss, 0, 1300*ms, nil); got != 0 {
		t.Fatalf("rate without stretches %v, want 0", got)
	}
	lat := latenciesMs(ss, 0, 1300*ms, marks)
	if lat[0] != 1 || lat[len(lat)-1] != 1.5 {
		t.Fatalf("scaled latencies run %v..%v, want 1..1.5", lat[0], lat[len(lat)-1])
	}
	if raw := latenciesMs(ss, 0, 1300*ms, nil); raw[0] != 2 || raw[len(raw)-1] != 2 {
		t.Fatalf("unscaled latencies run %v..%v, want 2", raw[0], raw[len(raw)-1])
	}
}

func TestReferenceLoopAllocatesNothing(t *testing.T) {
	l, err := newRefLoop(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, l.unit); n != 0 {
		t.Fatalf("reference unit allocates %v times", n)
	}
}

func firstVisits(seed int64, pan bool) []visit {
	st := newStream(seed, 0, pan, geom.R(0, 0, 2000, 2000))
	var vs []visit
	for i := 0; i < 20; i++ {
		vs = append(vs, st.next())
	}
	return vs
}

func poleLocations(t *testing.T, seed int64) []string {
	t.Helper()
	db, err := geodb.Open(geodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pn, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{Seed: seed, PolesPerZone: 10})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, oid := range pn.Poles {
		in, err := db.GetValue(event.Context{}, oid)
		if err != nil {
			t.Fatal(err)
		}
		loc, _ := in.Get("pole_location")
		out = append(out, fmt.Sprintf("%d %s", oid, loc))
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	for _, pan := range []bool{false, true} {
		a, b, c := firstVisits(7, pan), firstVisits(7, pan), firstVisits(8, pan)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pan=%v: the same seed gave different step streams", pan)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("pan=%v: different seeds gave the same step stream", pan)
		}
	}
	nw := &network{poles: []catalog.OID{1, 2, 3}, suppliers: []catalog.OID{9},
		zones: []geom.Rect{geom.R(0, 0, 100, 100)}, poleAttrs: []string{"pole_location"}}
	edits := func(seed int64) [][]ui.TxnOp {
		ed := newEditor(seed, nw)
		var out [][]ui.TxnOp
		for i := 0; i < 5; i++ {
			ops := ed.next()
			ed.acked(ops, []catalog.OID{0, catalog.OID(100 + i)}, nil)
			out = append(out, ops)
		}
		return out
	}
	if !reflect.DeepEqual(edits(7), edits(7)) || reflect.DeepEqual(edits(7), edits(8)) {
		t.Fatal("the edit stream must follow the seed")
	}
	if a, b, c := poleLocations(t, 7), poleLocations(t, 7), poleLocations(t, 8); !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("the generated network must follow the seed")
	}
}

// manifest is the part of BENCHMARK.json the smoke test holds the program to.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func names(specs []struct{ Name, Unit string }) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name+" "+s.Unit)
	}
	sort.Strings(out)
	return out
}

func reported(got map[string]metric) []string {
	var out []string
	for k, m := range got {
		out = append(out, k+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at reduced size for about a second each way
// and holds its output to BENCHMARK.json: the same workloads, and exactly the
// declared metrics with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, have)
	}
	h, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	p := plan{seed: 3, dir: t.TempDir(), host: h, warmup: 200 * time.Millisecond,
		untraced: 1500 * time.Millisecond, endToEnd: true, traced: 1500 * time.Millisecond,
		oneSetup: true, minBeyond: 0, replay: 10, small: true}
	var results []*outcome
	for _, w := range workloads {
		var log strings.Builder
		o, err := runWorkload(p, w, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		if !o.Correct || o.Failed != 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", w.name, o.Correct, o.Failed, o.Attempted, o.Errors)
		}
		if got, want := reported(o.EndToEnd), names(man.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports end-to-end %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		if got, want := reported(o.PerLayer), names(man.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports per-layer %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		if c := o.PerLayer["trace.coverage_frac"].Value; c < 0.95 || c > 1.05 {
			t.Errorf("%s: self times cover %.3f of the root spans", w.name, c)
		}
		if w.name == "browse-local" && o.PerLayer["wire.self_us"].Value != 0 {
			t.Errorf("browse-local spent %v us/op on the wire", o.PerLayer["wire.self_us"].Value)
		}
		results = append(results, o)
	}
	line, err := summary(results[:1])
	if err != nil {
		t.Fatal(err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result line has keys %v", keys)
	}
}
