// Command bench is the end-to-end benchmark of the paper's unit of work, one
// exploratory interaction: a user event becomes Get_Schema, Get_Class or
// Get_Value, the active mechanism picks the most specific customization,
// the generic builder assembles the window and the display renders it. It
// drives the system as cmd/gisd and cmd/gisbrowse do (file-backed database,
// WAL on, Figure 6 plus generated directives, weak integration over loopback
// TCP) and reports end-to-end metrics from an untraced run and a per-layer
// split from a separate traced run. See README.md.
//
//	go run . -seed 1                                  # all workloads, both runs
//	go run . -workload pan-cold -seed 3 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/active"
	"repro/internal/storage"
	"repro/internal/workload"
)

// workloadDef is one traffic mix. README.md records why each exists.
type workloadDef struct {
	name                  string
	zones, poles, picture int  // generated network: zones per side, poles per zone, picture bytes
	tcp                   bool // weak integration over TCP, else in-process sessions
	pan                   bool // users pan and pick instead of browsing
	users                 int  // closed-loop reader sessions
	editRate              int  // open-loop editor transactions per second (0: none)
	setups                int  // set-ups timed per run; setup_s is their median
}

var workloads = []workloadDef{
	// The §4 browsing session over the whole weak-integration stack; the
	// network (about 14 pages) fits the 256-page buffer pool.
	{name: "browse-tcp", zones: 2, poles: 100, tcp: true, users: 2, setups: 7},
	// The same sessions in-process: a wire-only change must leave it be.
	{name: "browse-local", zones: 2, poles: 100, users: 2, setups: 7},
	// Map panning over about 16000 pages of 2 KiB pictures, 63 times the
	// pool. One set-up takes 6-10 s, so a run times 3.
	{name: "pan-cold", zones: 4, poles: 1000, picture: 2048, tcp: true, pan: true, users: 2, setups: 3},
	// A panning reader beside an open-loop editor: the only workload that
	// writes, so WAL, fsync, checkpoints and constraint rules run.
	{name: "edit-mix", zones: 2, poles: 100, tcp: true, pan: true, users: 1, editRate: 200, setups: 7},
}

const (
	warmup        = 3 * time.Second  // load before each measured window
	tracedSeconds = 10 * time.Second // traced window after a full untraced one
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are measured with tracing off. An interaction is timed from the
// call into ui.Session until render.Text returned; on edit-mix it is the
// reader's. The wall-clock metrics (rate, latencies, set-up) are scaled by
// the host's speed (calib.go).
var endToEnd = []metricSpec{
	{"interactions_per_s", "1/s"},
	{"interaction_p50_ms", "ms"},
	{"interaction_p99_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer come from the traced run and are not scaled. Times and counts are
// per operation (interaction or commit) unless the name says per commit.
var perLayer = []metricSpec{
	{"edit.commit_p50_ms", "ms"},
	{"edit.commit_p99_ms", "ms"},
	{"ui.self_us", "us"},
	{"render.self_us", "us"},
	{"wire.self_us", "us"},
	{"wire.bytes_per_op", "bytes"},
	{"wire.round_trips_per_op", "count"},
	{"server.self_us", "us"},
	{"active.self_us", "us"},
	{"active.evaluated_per_event", "count"},
	{"active.cache_hit_ratio", "ratio"},
	{"geodb.instances_per_op", "count"},
	{"geodb.window_races_per_op", "count"},
	{"pool.fetches_per_op", "count"},
	{"pool.hit_ratio", "ratio"},
	{"pool.evictions_per_op", "count"},
	{"pager.read_us", "us"},
	{"pager.reads_per_op", "count"},
	{"pager.write_us", "us"},
	{"pager.sync_us", "us"},
	{"wal.write_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.syncs_per_commit", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"runtime.gc_per_s", "1/s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage_frac", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"host.speed", "ratio"},
}

// plan is how one invocation runs each workload.
type plan struct {
	seed      int64
	dir       string
	host      *host
	warmup    time.Duration // before each measured window
	untraced  time.Duration // untraced window (0: none)
	endToEnd  bool          // report end-to-end metrics from the untraced window
	traced    time.Duration // traced window (0: none)
	oneSetup  bool          // time one set-up, not the workload's count
	minBeyond int           // samples a percentile needs beyond it
	replay    int           // steps per stream in the transparency check
	small     bool          // smoke-test network sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's result.
type outcome struct {
	Workload  string            `json:"workload"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	Unscaled  map[string]metric `json:"end_to_end_unscaled,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Samples   map[string]int    `json:"samples"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    map[string]string `json:"first_errors,omitempty"`
	spans     []span
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty: all of them)")
		seed    = flag.Int64("seed", 1, "seed of the generated network and the session streams")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: untraced and traced halves, per-layer metrics; -1: untraced run plus a 10 s traced run, both")
		dir     = flag.String("dir", ".bench_build", "directory for database files, the result and the span dumps")
		out     = flag.String("out", "", "result file (default: result.json in -dir)")
	)
	flag.Parse()
	h, err := newHost()
	if err != nil {
		fatal(err)
	}
	p := plan{seed: *seed, dir: *dir, host: h, warmup: warmup, minBeyond: 10, replay: 50}
	window := time.Duration(*seconds * float64(time.Second))
	switch *trace {
	case 0:
		p.untraced, p.endToEnd = window, true
	case 1:
		p.untraced, p.traced, p.oneSetup = window/2, window/2, true
	case -1:
		p.untraced, p.endToEnd, p.traced = window, true, tracedSeconds
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or -1, not %d", *trace))
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(*dir, "result.json")
	}
	var results []*outcome
	for _, w := range selected {
		o, err := runWorkload(p, w, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		// Dump the spans now: held on, they would weigh on the heap and the
		// collector of the workloads after this one.
		if err := writeSpans(p.dir, o); err != nil {
			fatal(err)
		}
		results = append(results, o)
	}
	if err := writeResult(*out, results); err != nil {
		fatal(err)
	}
	line, err := summary(results)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stdout, line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runWorkload sets the workload up, checks transparency, runs the untraced
// and the traced windows the plan asks for, and verifies the edits.
func runWorkload(p plan, w workloadDef, log io.Writer) (*outcome, error) {
	if p.small {
		w.zones, w.poles = 2, w.poles/4
	}
	o := &outcome{Workload: w.name, Samples: map[string]int{}, Correct: true}
	dir := filepath.Join(p.dir, w.name)
	opts := workload.PhoneNetOptions{Seed: p.seed, ZonesPerSide: w.zones, PolesPerZone: w.poles, PictureBytes: w.picture}
	var s *system
	var nw *network
	// One reference measurement is too noisy to scale one set-up by, so the
	// median set-up is scaled by the median of the speeds measured between
	// set-ups, which follows the host's drift over the run. Collecting the
	// garbage first keeps the collector off the reference's CPUs.
	var took, speeds []float64
	measure := func() {
		runtime.GC()
		speeds = append(speeds, p.host.speed())
	}
	setups := w.setups
	if p.oneSetup {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		measure()
		t0 := time.Now()
		sys, pn, err := create(dir, opts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		s = sys
		if nw, err = newNetwork(pn, w.zones, sys.sys.DB); err != nil {
			_ = s.close()
			return nil, err
		}
	}
	measure()
	setupRaw := median(took)
	setup := setupRaw * median(speeds)
	o.Samples["setups"] = setups
	closeAll := func(err error) (*outcome, error) {
		_ = s.close()
		return nil, err
	}
	fmt.Fprintf(log, "%s seed %d: %s\n", w.name, p.seed, s.sys.Describe())
	if err := transparency(s, w, nw, p.seed, p.replay, nil); err != nil {
		return closeAll(err)
	}
	ed := newEditor(p.seed, nw)
	var untracedRate float64
	if p.untraced > 0 {
		m := &monitor{s: s, from: p.warmup, to: p.warmup + p.untraced}
		tl, pc := runLoad(s, w, nw, ed, p.seed, p.host, m.to, m.run)
		marks := pc.speeds()
		untracedRate = ratePerS(tl.inter, m.from, m.to, marks)
		if !p.endToEnd {
			o.count(tl, m.from, m.to)
		} else if err := o.endToEnd(p, tl, m, marks, setup, setupRaw); err != nil {
			return closeAll(err)
		}
	}
	if p.traced > 0 {
		// The edits changed the database: the traced assembly must render
		// what the untraced one renders now.
		windows, err := replay(s, true, w, nw, p.seed, p.replay)
		if err != nil {
			return closeAll(err)
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		t := newTracer()
		if s, err = reopenTraced(filepath.Join(dir, "geo.db"), t); err != nil {
			return nil, fmt.Errorf("traced reopen: %w", err)
		}
		if err := transparency(s, w, nw, p.seed, p.replay, windows); err != nil {
			return closeAll(err)
		}
		m := &monitor{s: s, from: p.warmup, to: p.warmup + p.traced}
		tl, pc := runLoad(s, w, nw, ed, p.seed, p.host, m.to, m.run)
		if err := o.layers(p, w, tl, m, t, pc, untracedRate); err != nil {
			return closeAll(err)
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if w.editRate > 0 {
		checked, bad, first := verify(filepath.Join(dir, "geo.db"), ed)
		o.Attempted += checked
		o.Failed += bad
		o.Samples["verified_edits"] = checked
		if bad > 0 {
			o.Correct = false
			o.noteErr("edit lost", first)
		}
	}
	o.print(log)
	return o, nil
}

func (o *outcome) noteErr(kind string, err error) {
	if o.Errors == nil {
		o.Errors = map[string]string{}
	}
	if _, ok := o.Errors[kind]; !ok {
		o.Errors[kind] = err.Error()
	}
}

// count adds one window's operations to the outcome's tallies.
func (o *outcome) count(tl *tally, from, to time.Duration) int {
	ops := within(tl.inter, from, to) + within(tl.commits, from, to)
	failed := within(tl.failed, from, to)
	o.Attempted += ops + failed
	o.Failed += failed
	if tl.wrong > 0 {
		o.Correct = false
	}
	for k, v := range tl.errs {
		o.noteErr(k, errors.New(v))
	}
	return ops
}

// endToEnd computes the end-to-end metrics of the untraced window: scaled by
// the host's speed (marks), and unscaled for the record.
func (o *outcome) endToEnd(p plan, tl *tally, m *monitor, marks []mark, setup, setupRaw float64) error {
	ops := o.count(tl, m.from, m.to)
	if ops == 0 {
		return errors.New("no operation completed in the measured window")
	}
	timing := func(marks []mark) (rate, p50, p99 float64, n int, err error) {
		lat := latenciesMs(tl.inter, m.from, m.to, marks)
		if p50, err = percentile(lat, 0.50, p.minBeyond); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("interaction latency: %w", err)
		}
		if p99, err = percentile(lat, 0.99, p.minBeyond); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("interaction latency: %w", err)
		}
		return ratePerS(tl.inter, m.from, m.to, marks), p50, p99, len(lat), nil
	}
	rate, p50, p99, n, err := timing(marks)
	if err != nil {
		return err
	}
	// Unscaled: every mark at speed 1, so the stretches stay the same.
	flat := make([]mark, len(marks))
	for i, mk := range marks {
		flat[i] = mark{from: mk.from, to: mk.to, speed: 1}
	}
	rawRate, rawP50, rawP99, _, err := timing(flat)
	if err != nil {
		return err
	}
	o.Samples["interactions"] = n
	o.Samples["speed_marks"] = len(marks)
	o.Samples["seconds"] = int((m.to - m.from) / time.Second)
	o.Samples["window_races"] = within(tl.races, m.from, m.to)
	o.EndToEnd = map[string]metric{
		"interactions_per_s": {rate, "1/s"},
		"interaction_p50_ms": {p50, "ms"},
		"interaction_p99_ms": {p99, "ms"},
		"alloc_kb_per_op":    {float64(m.b.totalAlloc-m.a.totalAlloc) / 1024 / float64(ops), "KiB"},
		"heap_live_mb":       {median(m.live) / (1 << 20), "MiB"},
		"setup_s":            {setup, "s"},
	}
	o.Unscaled = map[string]metric{
		"interactions_per_s": {rawRate, "1/s"},
		"interaction_p50_ms": {rawP50, "ms"},
		"interaction_p99_ms": {rawP99, "ms"},
		"setup_s":            {setupRaw, "s"},
		"host.speed":         {medianSpeed(marks, m.from, m.to), "ratio"},
	}
	return nil
}

// medianSpeed is the median of the host speeds measured in [from, to).
func medianSpeed(marks []mark, from, to time.Duration) float64 {
	var xs []float64
	for _, mk := range marks {
		if mk.from >= from && mk.from < to {
			xs = append(xs, mk.speed)
		}
	}
	return median(xs)
}

// layers computes the per-layer metrics of the traced window.
func (o *outcome) layers(p plan, w workloadDef, tl *tally, m *monitor, t *tracer, pc *pacer, untracedRate float64) error {
	o.count(tl, m.from, m.to)
	marks := pc.speeds()
	base := int64(pc.start.Sub(t.epoch))
	spans, ops := t.window(base+int64(m.from), base+int64(m.to))
	if ops == 0 {
		return errors.New("no operation completed in the traced window")
	}
	o.spans = spans
	self, roots := layerSplit(spans)
	var selfSum int64
	for _, ns := range self {
		selfSum += ns
	}
	commits := float64(within(tl.commits, m.from, m.to))
	perOp := func(x float64) float64 { return x / float64(ops) }
	perCommit := func(x float64) float64 {
		if commits == 0 {
			return 0
		}
		return x / commits
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	d := m.b.sub(m.a)
	secs := (m.to - m.from).Seconds()
	var late, commit50, commit99 float64
	if w.editRate > 0 {
		var err error
		if late, err = percentile(latenciesMs(tl.late, m.from, m.to, nil), 0.99, p.minBeyond); err != nil {
			return fmt.Errorf("editor lateness: %w", err)
		}
		lat := latenciesMs(tl.commits, m.from, m.to, nil)
		if commit50, err = percentile(lat, 0.50, p.minBeyond); err != nil {
			return fmt.Errorf("commit latency: %w", err)
		}
		if commit99, err = percentile(lat, 0.99, p.minBeyond); err != nil {
			return fmt.Errorf("commit latency: %w", err)
		}
	}
	var overhead float64
	if untracedRate > 0 {
		overhead = 1 - ratePerS(tl.inter, m.from, m.to, marks)/untracedRate
	}
	fetches := float64(d.pool.Hits + d.pool.Misses)
	var hit, evaluated float64
	if fetches > 0 {
		hit = float64(d.pool.Hits) / fetches
	}
	if d.engine.Events > 0 {
		evaluated = float64(d.engine.Evaluated) / float64(d.engine.Events)
	}
	cacheLookups := float64(d.cache.Hits + d.cache.Misses + d.cache.Uncacheable)
	var cacheHit float64
	if cacheLookups > 0 {
		cacheHit = float64(d.cache.Hits) / cacheLookups
	}
	var gcFrac float64
	if d.cpuTotal > 0 {
		gcFrac = d.cpuGC / d.cpuTotal
	}
	o.Samples["traced_ops"] = ops
	o.Samples["spans"] = len(spans)
	o.PerLayer = map[string]metric{
		"edit.commit_p50_ms":         {commit50, "ms"},
		"edit.commit_p99_ms":         {commit99, "ms"},
		"ui.self_us":                 {perOp(us(self["ui"])), "us"},
		"render.self_us":             {perOp(us(self["render"])), "us"},
		"wire.self_us":               {perOp(us(self[layerWire])), "us"},
		"wire.bytes_per_op":          {perOp(float64(d.wireBytes)), "bytes"},
		"wire.round_trips_per_op":    {perOp(float64(d.roundTrips)), "count"},
		"server.self_us":             {perOp(us(self[layerServer])), "us"},
		"active.self_us":             {perOp(us(self["active"])), "us"},
		"active.evaluated_per_event": {evaluated, "count"},
		"active.cache_hit_ratio":     {cacheHit, "ratio"},
		"geodb.instances_per_op":     {perOp(float64(d.instances)), "count"},
		"geodb.window_races_per_op":  {perOp(float64(within(tl.races, m.from, m.to))), "count"},
		"pool.fetches_per_op":        {perOp(fetches), "count"},
		"pool.hit_ratio":             {hit, "ratio"},
		"pool.evictions_per_op":      {perOp(float64(d.pool.Evictions)), "count"},
		"pager.read_us":              {perOp(us(d.pagerRead.ns)), "us"},
		"pager.reads_per_op":         {perOp(float64(d.pagerRead.n)), "count"},
		"pager.write_us":             {perOp(us(d.pagerWrite.ns)), "us"},
		"pager.sync_us":              {perOp(us(d.pagerSync.ns)), "us"},
		"wal.write_us":               {perCommit(us(d.walWrite.ns)), "us"},
		"wal.sync_us":                {perCommit(us(d.walSync.ns)), "us"},
		"wal.syncs_per_commit":       {perCommit(float64(d.walSync.n)), "count"},
		"wal.bytes_per_commit":       {perCommit(float64(d.walBytes)), "bytes"},
		"runtime.gc_per_s":           {float64(d.numGC) / secs, "1/s"},
		"runtime.gc_cpu_frac":        {gcFrac, "ratio"},
		"runtime.allocs_per_op":      {perOp(float64(d.mallocs)), "count"},
		"trace.overhead_frac":        {overhead, "ratio"},
		"trace.coverage_frac":        {float64(selfSum) / float64(roots), "ratio"},
		"gen.late_p99_ms":            {late, "ms"},
		"host.speed":                 {medianSpeed(marks, m.from, m.to), "ratio"},
	}
	return nil
}

// print writes the outcome as a table: every metric by name and unit, with
// the sample counts behind them.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed, correct=%v\n", o.Workload, o.Attempted, o.Failed, o.Correct)
	for _, set := range []struct {
		specs []metricSpec
		got   map[string]metric
	}{{endToEnd, o.EndToEnd}, {perLayer, o.PerLayer}} {
		for _, sp := range set.specs {
			if m, ok := set.got[sp.name]; ok {
				fmt.Fprintf(w, "  %-28s %14.4f %s\n", sp.name, m.Value, sp.unit)
			}
		}
	}
	if o.Unscaled != nil {
		var parts []string
		for _, k := range []string{"interactions_per_s", "interaction_p50_ms", "interaction_p99_ms", "setup_s", "host.speed"} {
			parts = append(parts, fmt.Sprintf("%s=%.4f", k, o.Unscaled[k].Value))
		}
		fmt.Fprintf(w, "  unscaled: %s\n", strings.Join(parts, " "))
	}
	keys := make([]string, 0, len(o.Samples))
	for k := range o.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, o.Samples[k]))
	}
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(parts, " "))
	kinds := make([]string, 0, len(o.Errors))
	for k := range o.Errors {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  first %s: %s\n", k, o.Errors[k])
	}
}

// summary is the last line of output: one JSON object. With one workload
// the metrics carry their plain names, with several the workload's name
// prefixes them.
func summary(results []*outcome) (string, error) {
	type line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	l := line{Correct: true, Metrics: map[string]metric{}}
	for _, o := range results {
		l.Correct = l.Correct && o.Correct
		l.Attempted += o.Attempted
		l.Failed += o.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = o.Workload + "."
		}
		for _, set := range []map[string]metric{o.EndToEnd, o.PerLayer} {
			for k, v := range set {
				l.Metrics[prefix+k] = v
			}
		}
	}
	b, err := json.Marshal(l)
	return string(b), err
}

// writeResult writes every outcome to the result file.
func writeResult(out string, results []*outcome) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// writeSpans dumps a traced workload's spans and lets them go.
func writeSpans(dir string, o *outcome) error {
	if o.spans == nil {
		return nil
	}
	b, err := json.Marshal(o.spans)
	if err != nil {
		return err
	}
	o.spans = nil
	return os.WriteFile(filepath.Join(dir, "spans-"+o.Workload+".json"), b, 0o644)
}

// snapshot is the process and program counters at one instant.
type snapshot struct {
	totalAlloc, mallocs, numGC uint64
	cpuGC, cpuTotal            float64
	engine                     active.Stats
	cache                      active.CacheStats
	pool                       storage.PoolStats
	pagerRead, pagerWrite      timing
	pagerSync                  timing
	walWrite, walSync          timing
	walBytes, wireBytes        int64
	roundTrips, instances      int64
}

type timing struct{ n, ns int64 }

func (t *timer) load() timing { return timing{t.n.Load(), t.ns.Load()} }

func take(s *system) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	sn := snapshot{
		totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: uint64(ms.NumGC),
		cpuGC: cpu[0].Value.Float64(), cpuTotal: cpu[1].Value.Float64(),
		engine: s.sys.Engine.Stats(), cache: s.sys.Engine.CacheStats(), pool: s.sys.DB.Pool().Stats(),
	}
	if t := s.t; t != nil {
		sn.pagerRead, sn.pagerWrite, sn.pagerSync = t.pagerRead.load(), t.pagerWrite.load(), t.pagerSync.load()
		sn.walWrite, sn.walSync = t.walWrite.load(), t.walSync.load()
		sn.walBytes, sn.wireBytes = t.walBytes.Load(), t.wireBytes.Load()
		sn.roundTrips, sn.instances = t.roundTrips.Load(), t.instances.Load()
	}
	return sn
}

// sub returns the counter deltas from a to b.
func (b snapshot) sub(a snapshot) snapshot {
	dt := func(x, y timing) timing { return timing{x.n - y.n, x.ns - y.ns} }
	return snapshot{
		totalAlloc: b.totalAlloc - a.totalAlloc, mallocs: b.mallocs - a.mallocs, numGC: b.numGC - a.numGC,
		cpuGC: b.cpuGC - a.cpuGC, cpuTotal: b.cpuTotal - a.cpuTotal,
		engine: active.Stats{Events: b.engine.Events - a.engine.Events, Evaluated: b.engine.Evaluated - a.engine.Evaluated},
		cache: active.CacheStats{Hits: b.cache.Hits - a.cache.Hits, Misses: b.cache.Misses - a.cache.Misses,
			Uncacheable: b.cache.Uncacheable - a.cache.Uncacheable},
		pool: storage.PoolStats{Hits: b.pool.Hits - a.pool.Hits, Misses: b.pool.Misses - a.pool.Misses,
			Evictions: b.pool.Evictions - a.pool.Evictions},
		pagerRead: dt(b.pagerRead, a.pagerRead), pagerWrite: dt(b.pagerWrite, a.pagerWrite),
		pagerSync: dt(b.pagerSync, a.pagerSync),
		walWrite:  dt(b.walWrite, a.walWrite), walSync: dt(b.walSync, a.walSync),
		walBytes: b.walBytes - a.walBytes, wireBytes: b.wireBytes - a.wireBytes,
		roundTrips: b.roundTrips - a.roundTrips, instances: b.instances - a.instances,
	}
}

// monitor snapshots the counters at the edges of the measured window,
// [from, to) after the load's start, and samples the live heap in between.
type monitor struct {
	s        *system
	from, to time.Duration
	a, b     snapshot
	live     []float64 // bytes the last collection found live, every 2 ms
}

func (m *monitor) run(start time.Time) {
	time.Sleep(time.Until(start.Add(m.from)))
	m.a = take(m.s)
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	end := start.Add(m.to)
	for now := time.Now(); now.Before(end); now = <-tick.C {
		metrics.Read(heap)
		m.live = append(m.live, float64(heap[0].Value.Uint64()))
	}
	m.b = take(m.s)
}
