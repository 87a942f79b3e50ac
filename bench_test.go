// Benchmarks regenerating the paper's evaluation artifacts, one family per
// experiment in DESIGN.md §4. Each B-series benchmark runs its EXPERIMENTS.md
// table's grid. `make experiments` runs them ten times with -benchmem and
// summarizes every cell as median [q1–q3] through cmd/gisbench; B3, the cost
// model, has no time dimension and is an Example in internal/experiments.
package gisui_test

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/hardwired"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/ui"
	"repro/internal/workload"
)

// --- Figures: the reproduction paths themselves ---------------------------

// BenchmarkFigure4DefaultWindows measures building the three default
// windows of Figure 4 (schema -> class -> instance, generic user).
func BenchmarkFigure4DefaultWindows(b *testing.B) {
	f := experiments.MustFixture(16, 1, false)
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.Sys.NewSession(experiments.MariaCtx)
		if err := s.Connect(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.OpenSchema(workload.SchemaName); err != nil {
			b.Fatal(err)
		}
		if _, err := s.OpenClass(workload.SchemaName, "Pole"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.OpenInstance(f.Net.Poles[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Compile measures compiling the Figure 6 script into rules.
func BenchmarkFigure6Compile(b *testing.B) {
	f := experiments.MustFixture(1, 1, false)
	defer f.Close()
	a := f.Sys.Analyzer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.CompileSource(workload.Figure6Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7CustomizedWindows measures the customized session of
// Figure 7 (rules fire, poleWidget + composed attributes build).
func BenchmarkFigure7CustomizedWindows(b *testing.B) {
	f := experiments.MustFixture(16, 1, true)
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.Sys.NewSession(experiments.JulianoCtx)
		if err := s.Connect(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.OpenSchema(workload.SchemaName); err != nil {
			b.Fatal(err)
		}
		if _, err := s.OpenInstance(f.Net.Poles[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1: rule selection ----------------------------------------------------

func ruleEngine(b *testing.B, contexts int, indexed bool) *active.Engine {
	b.Helper()
	f := experiments.MustFixture(1, 1, false)
	b.Cleanup(func() { f.Close() })
	engine := active.NewEngine()
	engine.Indexed = indexed
	// These benchmarks measure the candidate scan itself; the decision
	// cache would collapse the repeated probe into a map hit and hide the
	// indexed-vs-linear contrast (BenchmarkDispatchCached measures the
	// cache instead).
	engine.CacheDecisions = false
	a := f.Sys.Analyzer()
	for i, ctx := range workload.Contexts(contexts) {
		if _, err := a.Install(engine, workload.DirectiveFor(ctx, i)); err != nil {
			b.Fatal(err)
		}
	}
	return engine
}

// selectionProbe is a Get_Class event of the first generated context.
var selectionProbe = event.Event{
	Kind: event.GetClass, Schema: workload.SchemaName, Class: "Pole",
	Ctx: event.Context{User: "user0000", Category: "planners", Application: "pole_manager"},
}

func benchSelect(b *testing.B, engine *active.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Select(selectionProbe); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRuleSelection(b *testing.B, indexed bool) {
	for _, n := range []int{16, 64, 256, 1024} {
		engine := ruleEngine(b, n, indexed)
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			benchSelect(b, engine)
			b.ReportMetric(float64(engine.RuleCount()), "rules")
		})
	}
}

func BenchmarkRuleSelectionIndexed(b *testing.B) { benchRuleSelection(b, true) }
func BenchmarkRuleSelectionLinear(b *testing.B)  { benchRuleSelection(b, false) }

// --- B2: window build latency ----------------------------------------------

// figure6Custs returns the per-level customizations the Figure 6 rules
// select for juliano, applied directly so B2 isolates the builder (rule
// selection is B1's number).
func figure6Custs(b *testing.B, f *experiments.Fixture) (s *spec.SchemaCust, c *spec.ClassCust, in *spec.InstanceCust) {
	units, err := f.Sys.Analyzer().CompileSource(workload.Figure6Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range units[0].Rules {
		cust, err := r.Customize(experiments.JulianoEvent())
		if err != nil {
			b.Fatal(err)
		}
		switch cust.Level {
		case spec.LevelSchema:
			s = &cust.Schema
		case spec.LevelClass:
			c = &cust.Class
		case spec.LevelInstance:
			in = &cust.Instance
		}
	}
	return s, c, in
}

// BenchmarkWindowBuild builds each window kind three ways over a 32-pole
// extension: hand-written hardwired code, the generic builder, and the
// generic builder under the Figure 6 customization.
func BenchmarkWindowBuild(b *testing.B) {
	f := experiments.MustFixture(32, 1, true)
	defer f.Close()
	db := f.Sys.DB
	hw := hardwired.New(db, hardwired.VariantPoleManager)
	hwGeneric := hardwired.New(db, hardwired.VariantGeneric)
	bld := f.Sys.Builder
	info, err := db.GetSchema(experiments.MariaCtx, workload.SchemaName)
	if err != nil {
		b.Fatal(err)
	}
	cinfo, err := db.GetClass(experiments.MariaCtx, workload.SchemaName, "Pole")
	if err != nil {
		b.Fatal(err)
	}
	instances, err := db.Select(workload.SchemaName, "Pole", nil)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := db.GetValue(experiments.MariaCtx, f.Net.Poles[0])
	if err != nil {
		b.Fatal(err)
	}
	schemaCust, classCust, instCust := figure6Custs(b, f)

	cells := []struct {
		name  string
		build func() error
	}{
		{"Schema/hardwired", func() error { _, err := hwGeneric.SchemaWindow(info); return err }},
		{"Schema/generic", func() error { _, err := bld.BuildSchemaWindow(info, nil); return err }},
		{"Schema/customized", func() error { _, err := bld.BuildSchemaWindow(info, schemaCust); return err }},
		{"ClassSet/hardwired", func() error { _, err := hw.ClassWindow(cinfo, instances); return err }},
		{"ClassSet/generic", func() error { _, err := bld.BuildClassWindow(cinfo, instances, nil); return err }},
		{"ClassSet/customized", func() error { _, err := bld.BuildClassWindow(cinfo, instances, classCust); return err }},
		{"Instance/hardwired", func() error { _, err := hw.InstanceWindow(inst); return err }},
		{"Instance/generic", func() error { _, err := bld.BuildInstanceWindow(inst, nil); return err }},
		{"Instance/customized", func() error { _, err := bld.BuildInstanceWindow(inst, instCust); return err }},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B4: interaction dispatch ----------------------------------------------

// BenchmarkDispatch runs one schema-then-class interaction pair per op
// through a session, with 0 to 640 generated rules installed.
func BenchmarkDispatch(b *testing.B) {
	for _, n := range []int{0, 8, 64, 256} {
		f := experiments.MustFixture(8, 1, false)
		a := f.Sys.Analyzer()
		for i, ctx := range workload.Contexts(n) {
			if _, err := a.Install(f.Sys.Engine, workload.DirectiveFor(ctx, i)); err != nil {
				b.Fatal(err)
			}
		}
		s := f.Sys.NewSession(selectionProbe.Ctx)
		if err := s.Connect(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.OpenSchema(workload.SchemaName); err != nil {
					b.Fatal(err)
				}
				if _, err := s.OpenClass(workload.SchemaName, "Duct"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Sys.Engine.RuleCount()), "rules")
		})
		f.Close()
	}
}

// --- B5: buffer pool ---------------------------------------------------------

// browseRound is one step of a map-browsing trace: a window query over a
// viewport that jumps across the map every round (weak locality between
// rounds, strong within one), then an instance read of every pole in view.
func browseRound(db *geodb.DB, round int) error {
	dx := float64((round * 7 % 10) * 140)
	dy := float64((round * 3 % 10) * 140)
	oids, err := db.Window(workload.SchemaName, "Pole", geom.R(dx, dy, dx+600, dy+600))
	if err != nil {
		return err
	}
	for _, oid := range oids {
		if _, err := db.GetValue(event.Context{}, oid); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkBufferPool runs the browsing trace, one round per op, over 480
// poles carrying 2 KB pictures, so the extension spans far more pages than
// any pool under test. hit-ratio covers the timed rounds only.
func BenchmarkBufferPool(b *testing.B) {
	for _, size := range []int{4, 16, 64, 256} {
		for _, policy := range []storage.ReplacementPolicy{storage.PolicyLRU, storage.PolicyClock} {
			db, err := geodb.Open(geodb.Options{PoolSize: size, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{
				Seed: 5, ZonesPerSide: 2, PolesPerZone: 120, PictureBytes: 2048}); err != nil {
				b.Fatal(err)
			}
			round := 0
			b.Run(fmt.Sprintf("pages=%d/%s", size, policy), func(b *testing.B) {
				before := db.Pool().Stats()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := browseRound(db, round); err != nil {
						b.Fatal(err)
					}
					round++
				}
				b.StopTimer()
				after := db.Pool().Stats()
				timed := storage.PoolStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
				b.ReportMetric(timed.HitRatio(), "hit-ratio")
			})
			db.Close()
		}
	}
}

// --- B6: spatial queries -----------------------------------------------------

// BenchmarkSpatialQuery answers a window query covering about 1% of the map
// through the R-tree and by a sequential scan.
func BenchmarkSpatialQuery(b *testing.B) {
	win := geom.R(400, 400, 600, 600)
	for _, perZone := range []int{62, 250, 1000, 4000} {
		db, err := geodb.Open(geodb.Options{PoolSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{
			Seed: 7, ZonesPerSide: 2, PolesPerZone: perZone, DuctEvery: 0}); err != nil {
			b.Fatal(err)
		}
		for _, indexed := range []bool{true, false} {
			name := "rtree"
			if !indexed {
				name = "scan"
			}
			b.Run(fmt.Sprintf("poles=%d/%s", 4*perZone, name), func(b *testing.B) {
				db.UseSpatialIndex = indexed
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Window(workload.SchemaName, "Pole", win); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		db.Close()
	}
}

// --- B7: topological constraints --------------------------------------------

// BenchmarkTopoGuard inserts poles under 0, 1 or 2 topological constraints;
// one insert in four lands outside every zone. vetoed/op is the share of
// inserts the constraint rules refused.
func BenchmarkTopoGuard(b *testing.B) {
	constraints := []topo.Constraint{
		{Name: "pole-in-zone", Schema: workload.SchemaName, Class: "Pole",
			With: "Zone", Relation: geom.Inside, Mode: topo.Require},
		{Name: "poles-distinct", Schema: workload.SchemaName, Class: "Pole",
			With: "Pole", Relation: geom.EqualRel, Mode: topo.Forbid},
	}
	for nc := 0; nc <= len(constraints); nc++ {
		b.Run(fmt.Sprintf("constraints=%d", nc), func(b *testing.B) {
			db, err := geodb.Open(geodb.Options{PoolSize: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{
				Seed: 3, ZonesPerSide: 2, PolesPerZone: 50}); err != nil {
				b.Fatal(err)
			}
			engine := active.NewEngine()
			db.Bus().Subscribe(engine)
			guard := topo.NewGuard(db)
			for _, c := range constraints[:nc] {
				if err := guard.Install(engine, c); err != nil {
					b.Fatal(err)
				}
			}
			ctx := event.Context{Application: "bench"}
			vetoed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The coordinate pattern repeats every 2000 inserts; the
				// shift keeps every point distinct and inside the map for
				// the first two million inserts, so only the adversarial
				// quarter breaks a constraint.
				shift := float64(i/2000) / 1024
				x, y := float64((i*37)%2000)+shift, float64((i*53)%2000)+shift
				if i%4 == 0 {
					x += 5000
				}
				_, err := db.InsertMap(ctx, workload.SchemaName, "Pole",
					map[string]catalog.Value{"pole_location": catalog.GeomVal(geom.Pt(x, y))})
				switch {
				case err == nil:
				case nc > 0 && errors.Is(err, geodb.ErrVetoed):
					vetoed++
				default:
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(vetoed)/float64(b.N), "vetoed/op")
		})
	}
}

// --- B8: integration styles --------------------------------------------------

// BenchmarkIntegration issues each retrieval primitive through the
// in-process backend (strong integration) and through the protocol over an
// in-memory pipe and over TCP (weak integration).
func BenchmarkIntegration(b *testing.B) {
	f := experiments.MustFixture(16, 1, true)
	defer f.Close()

	srvConn, cliConn := net.Pipe()
	pipeSrv := server.New(f.Sys.Backend)
	go pipeSrv.ServeConn(srvConn)
	pipeCli := client.NewClient(cliConn)
	defer func() {
		pipeCli.Close()
		pipeSrv.Close()
	}()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	tcpSrv := server.New(f.Sys.Backend)
	go tcpSrv.Serve(l)
	tcpCli, err := client.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		tcpCli.Close()
		tcpSrv.Close()
	}()

	bindings := []struct {
		name    string
		backend ui.Backend
	}{{"strong", f.Sys.Backend}, {"pipe", pipeCli}, {"tcp", tcpCli}}
	primitives := []struct {
		name string
		call func(ui.Backend) error
	}{
		{"Get_Schema", func(be ui.Backend) error {
			_, _, err := be.GetSchema(experiments.JulianoCtx, workload.SchemaName)
			return err
		}},
		{"Get_Class", func(be ui.Backend) error {
			_, _, err := be.GetClass(experiments.JulianoCtx, workload.SchemaName, "Pole")
			return err
		}},
		{"Get_Value", func(be ui.Backend) error {
			_, _, err := be.GetValue(experiments.JulianoCtx, f.Net.Poles[0])
			return err
		}},
	}
	for _, bnd := range bindings {
		for _, p := range primitives {
			b.Run(bnd.name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := p.call(bnd.backend); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- B9: end-to-end sessions -------------------------------------------------

// BenchmarkSession runs one exploratory session per op (schema -> class ->
// 2 instances) for a generic user and for juliano, whose Figure 6 rules open
// the class window themselves.
func BenchmarkSession(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		for _, withRules := range []bool{false, true} {
			name, ctx := "default", experiments.MariaCtx
			if withRules {
				name, ctx = "customized", experiments.JulianoCtx
			}
			f := experiments.MustFixture(n, 1, withRules)
			b.Run(fmt.Sprintf("poles=%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := f.Sys.NewSession(ctx)
					if err := s.Connect(); err != nil {
						b.Fatal(err)
					}
					if _, err := s.OpenSchema(workload.SchemaName); err != nil {
						b.Fatal(err)
					}
					if !withRules {
						if _, err := s.OpenClass(workload.SchemaName, "Pole"); err != nil {
							b.Fatal(err)
						}
					}
					for k := 0; k < 2; k++ {
						if _, err := s.OpenInstance(f.Net.Poles[k%len(f.Net.Poles)]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			f.Close()
		}
	}
}

// --- Ablation: R-tree node fan-out (DESIGN.md §5 #4) -------------------------

func BenchmarkRTreeFanout(b *testing.B) {
	const n = 20000
	rects := make([]geom.Rect, n)
	for i := range rects {
		x := float64(i%141) * 13.7
		y := float64(i%173) * 11.3
		rects[i] = geom.R(x, y, x+5, y+5)
	}
	win := geom.R(300, 300, 500, 500)
	for _, fanout := range []int{4, 8, 16, 32, 64} {
		tr := rtree.NewWithCapacity(fanout, fanout/2)
		for i, r := range rects {
			tr.Insert(r, uint64(i))
		}
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			var buf []uint64
			for i := 0; i < b.N; i++ {
				buf = tr.Search(win, buf[:0])
			}
		})
	}
}

// --- Ablation: renderer cost relative to window build (DESIGN.md §5 #5) ------

func BenchmarkRender(b *testing.B) {
	f := experiments.MustFixture(64, 1, false)
	defer f.Close()
	info, err := f.Sys.DB.GetClass(experiments.MariaCtx, workload.SchemaName, "Pole")
	if err != nil {
		b.Fatal(err)
	}
	instances, err := f.Sys.DB.Select(workload.SchemaName, "Pole", nil)
	if err != nil {
		b.Fatal(err)
	}
	win, err := f.Sys.Builder.BuildClassWindow(info, instances, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := render.Text(win); len(out) == 0 {
				b.Fatal("empty rendering")
			}
		}
	})
	b.Run("svg", func(b *testing.B) {
		area := win.Find("map")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := render.SVG(area, render.SVGOptions{Width: 640, Height: 480}); len(out) == 0 {
				b.Fatal("empty rendering")
			}
		}
	})
}

// --- Observability overhead ------------------------------------------------

// BenchmarkObsDisabledOverhead pins the cost of the observability layer on a
// hot path with no span sink attached: the primitives must be a handful of
// atomic adds with zero allocation (check the allocs/op column), and the
// engine dispatch path must stay within a few percent of its pre-obs cost
// (compare against BenchmarkRuleSelectionIndexed across commits).
func BenchmarkObsDisabledOverhead(b *testing.B) {
	b.Run("primitives", func(b *testing.B) {
		r := obs.NewRegistry()
		c := r.Counter("c")
		h := r.Histogram("h", obs.LatencyBuckets)
		tr := obs.NewTracer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			sw := obs.Start(h)
			sw.Stop()
			sp := tr.Start("op")
			sp.Set("k", "v")
			sp.Finish()
		}
	})
	b.Run("dispatch", func(b *testing.B) {
		benchSelect(b, ruleEngine(b, 64, true))
	})
	b.Run("dispatch-spans", func(b *testing.B) {
		// The enabled path, for contrast: a 4k-span ring attached.
		engine := ruleEngine(b, 64, true)
		engine.Tracer().AttachSink(obs.NewSpanRecorder(4096))
		benchSelect(b, engine)
	})
}

// --- Decision cache ----------------------------------------------------------

// benchDispatchFigure6 measures one dispatch of the Figure 6 schema
// decision against an engine that also carries a population of
// category-scoped background rules (a shared installation). The cached and
// uncached variants are identical except for Engine.CacheDecisions.
func benchDispatchFigure6(b *testing.B, cached bool) {
	d, err := experiments.NewDispatchBench(cached)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatchCached(b *testing.B)   { benchDispatchFigure6(b, true) }
func BenchmarkDispatchUncached(b *testing.B) { benchDispatchFigure6(b, false) }

// BenchmarkFigure4DefaultWindowsParallel is Figure 4 with concurrent
// sessions: the engine's RLock'd candidate scan, the decision cache and the
// buffer pool all see simultaneous readers.
func BenchmarkFigure4DefaultWindowsParallel(b *testing.B) {
	f := experiments.MustFixture(16, 1, false)
	defer f.Close()
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := f.Sys.NewSession(experiments.MariaCtx)
			if err := s.Connect(); err != nil {
				b.Error(err)
				return
			}
			if _, err := s.OpenSchema(workload.SchemaName); err != nil {
				b.Error(err)
				return
			}
			if _, err := s.OpenInstance(f.Net.Poles[0]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Durability ----------------------------------------------------------------

// benchWALInsert measures acknowledged inserts under one durability
// configuration. The grouped variant runs the insert loop from parallel
// goroutines so concurrent commits coalesce onto shared fsyncs
// (DESIGN.md §15).
func benchWALInsert(b *testing.B, name string, disable, grouped bool) {
	wb, err := experiments.NewWALBench(b.TempDir(), name, disable)
	if err != nil {
		b.Fatal(err)
	}
	defer wb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	if grouped {
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := wb.Step(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		if err := wb.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALInsertOff(b *testing.B)     { benchWALInsert(b, "off", true, false) }
func BenchmarkWALInsertSynced(b *testing.B)  { benchWALInsert(b, "synced", false, false) }
func BenchmarkWALInsertGrouped(b *testing.B) { benchWALInsert(b, "grouped", false, true) }
