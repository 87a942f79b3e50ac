// Benchmarks regenerating the paper's evaluation artifacts, one family per
// experiment in DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/gisbench prints the same series as formatted tables (B3, the cost
// model, has no time dimension and lives only there).
package gisui_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

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

func benchRuleSelection(b *testing.B, contexts int, indexed bool) {
	engine := ruleEngine(b, contexts, indexed)
	probe := event.Event{
		Kind: event.GetClass, Schema: workload.SchemaName, Class: "Pole",
		Ctx: event.Context{User: "user0000", Category: "planners", Application: "pole_manager"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.HandleEvent(probe); err != nil {
			b.Fatal(err)
		}
		engine.TakeCustomization(probe)
	}
}

func BenchmarkRuleSelectionIndexed(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			benchRuleSelection(b, n, true)
		})
	}
}

func BenchmarkRuleSelectionLinear(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			benchRuleSelection(b, n, false)
		})
	}
}

// --- B2: window build latency ----------------------------------------------

func BenchmarkWindowBuild(b *testing.B) {
	f := experiments.MustFixture(32, 1, true)
	defer f.Close()
	db := f.Sys.DB
	hw := hardwired.New(db, hardwired.VariantPoleManager)
	info, err := db.GetClass(experiments.MariaCtx, workload.SchemaName, "Pole")
	if err != nil {
		b.Fatal(err)
	}
	instances, err := db.Select(workload.SchemaName, "Pole", nil)
	if err != nil {
		b.Fatal(err)
	}
	units, err := f.Sys.Analyzer().CompileSource(workload.Figure6Source)
	if err != nil {
		b.Fatal(err)
	}
	var classCust = func() *spec.ClassCust {
		for _, r := range units[0].Rules {
			c, err := r.Customize(event.Event{})
			if err == nil && c.Level == 2 {
				v := c.Class
				return &v
			}
		}
		return nil
	}()

	b.Run("hardwired", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hw.ClassWindow(info, instances); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Sys.Builder.BuildClassWindow(info, instances, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("customized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Sys.Builder.BuildClassWindow(info, instances, classCust); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- B4: interaction dispatch ----------------------------------------------

func BenchmarkDispatch(b *testing.B) {
	for _, rules := range []int{0, 64} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			f := experiments.MustFixture(8, 1, false)
			defer f.Close()
			a := f.Sys.Analyzer()
			for i, ctx := range workload.Contexts(rules) {
				if _, err := a.Install(f.Sys.Engine, workload.DirectiveFor(ctx, i)); err != nil {
					b.Fatal(err)
				}
			}
			s := f.Sys.NewSession(event.Context{
				User: "user0000", Category: "planners", Application: "pole_manager"})
			if err := s.Connect(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.OpenClass(workload.SchemaName, "Duct"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B5: buffer pool ---------------------------------------------------------

func BenchmarkBufferPool(b *testing.B) {
	for _, policy := range []storage.ReplacementPolicy{storage.PolicyLRU, storage.PolicyClock} {
		for _, size := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/pages=%d", policy, size), func(b *testing.B) {
				db, err := geodb.Open(geodb.Options{PoolSize: size, Policy: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				net, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{
					Seed: 5, ZonesPerSide: 2, PolesPerZone: 60, PictureBytes: 2048})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					oid := net.Poles[(i*31)%len(net.Poles)]
					if _, err := db.GetValue(event.Context{}, oid); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(db.Pool().Stats().HitRatio(), "hit-ratio")
			})
		}
	}
}

// --- B6: spatial queries -----------------------------------------------------

func BenchmarkSpatialQuery(b *testing.B) {
	for _, perZone := range []int{250, 2000} {
		db, err := geodb.Open(geodb.Options{PoolSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{
			Seed: 7, ZonesPerSide: 2, PolesPerZone: perZone, DuctEvery: 0}); err != nil {
			b.Fatal(err)
		}
		win := geom.R(400, 400, 600, 600)
		total := perZone * 4
		b.Run(fmt.Sprintf("rtree/poles=%d", total), func(b *testing.B) {
			db.UseSpatialIndex = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Window(workload.SchemaName, "Pole", win); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/poles=%d", total), func(b *testing.B) {
			db.UseSpatialIndex = false
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Window(workload.SchemaName, "Pole", win); err != nil {
					b.Fatal(err)
				}
			}
		})
		db.Close()
	}
}

// --- B7: topological constraints --------------------------------------------

func BenchmarkTopoGuard(b *testing.B) {
	for _, nc := range []int{0, 2} {
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
			constraints := []topo.Constraint{
				{Name: "pole-in-zone", Schema: workload.SchemaName, Class: "Pole",
					With: "Zone", Relation: geom.Inside, Mode: topo.Require},
				{Name: "poles-distinct", Schema: workload.SchemaName, Class: "Pole",
					With: "Pole", Relation: geom.EqualRel, Mode: topo.Forbid},
			}
			for i := 0; i < nc; i++ {
				if err := guard.Install(engine, constraints[i]); err != nil {
					b.Fatal(err)
				}
			}
			ctx := event.Context{Application: "bench"}
			b.ReportAllocs()
			b.ResetTimer()
			vetoes := 0
			for i := 0; i < b.N; i++ {
				// Coordinates may repeat or land on zone boundaries; a veto
				// is the constraint working, not a bench failure.
				x, y := float64((i*37)%2000), float64((i*53)%2000)
				_, err := db.InsertMap(ctx, workload.SchemaName, "Pole",
					map[string]catalog.Value{"pole_location": catalog.GeomVal(geom.Pt(x, y))})
				switch {
				case err == nil:
				case errors.Is(err, geodb.ErrVetoed):
					vetoes++
				default:
					b.Fatal(err)
				}
			}
			if nc == 0 && vetoes > 0 {
				b.Fatalf("vetoes without constraints: %d", vetoes)
			}
		})
	}
}

// --- B8: integration styles --------------------------------------------------

func BenchmarkIntegration(b *testing.B) {
	f := experiments.MustFixture(16, 1, true)
	defer f.Close()

	run := func(b *testing.B, backend ui.Backend) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := backend.GetSchema(experiments.JulianoCtx, workload.SchemaName); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("strong", func(b *testing.B) { run(b, f.Sys.Backend) })
	b.Run("pipe", func(b *testing.B) {
		srvConn, cliConn := net.Pipe()
		srv := server.New(f.Sys.Backend)
		go srv.ServeConn(srvConn)
		cli := client.NewClient(cliConn)
		defer func() {
			cli.Close()
			srv.Close()
		}()
		run(b, cli)
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(f.Sys.Backend)
		go srv.Serve(l)
		cli, err := client.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			cli.Close()
			srv.Close()
		}()
		run(b, cli)
	})
}

// --- B9: end-to-end sessions -------------------------------------------------

func BenchmarkSession(b *testing.B) {
	for _, withRules := range []bool{false, true} {
		name := "default"
		ctx := experiments.MariaCtx
		if withRules {
			name = "customized"
			ctx = experiments.JulianoCtx
		}
		b.Run(name, func(b *testing.B) {
			f := experiments.MustFixture(32, 1, withRules)
			defer f.Close()
			b.ReportAllocs()
			b.ResetTimer()
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
				if _, err := s.OpenInstance(f.Net.Poles[i%len(f.Net.Poles)]); err != nil {
					b.Fatal(err)
				}
			}
		})
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
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			tr := rtree.NewWithCapacity(fanout, fanout/2)
			for i, r := range rects {
				tr.Insert(r, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
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
		engine := ruleEngine(b, 64, true)
		probe := event.Event{
			Kind: event.GetClass, Schema: workload.SchemaName, Class: "Pole",
			Ctx: event.Context{User: "user0000", Category: "planners", Application: "pole_manager"},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := engine.HandleEvent(probe); err != nil {
				b.Fatal(err)
			}
			engine.TakeCustomization(probe)
		}
	})
	b.Run("dispatch-spans", func(b *testing.B) {
		// The enabled path, for contrast: a 4k-span ring attached.
		engine := ruleEngine(b, 64, true)
		engine.Tracer().AttachSink(obs.NewSpanRecorder(4096))
		probe := event.Event{
			Kind: event.GetClass, Schema: workload.SchemaName, Class: "Pole",
			Ctx: event.Context{User: "user0000", Category: "planners", Application: "pole_manager"},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := engine.HandleEvent(probe); err != nil {
				b.Fatal(err)
			}
			engine.TakeCustomization(probe)
		}
	})
}

// --- PR 4: decision cache, pipelined client ----------------------------------

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

// BenchmarkClientPipelined measures requests through ONE multiplexed client
// connection against a real pipelined server.Server over TCP, with the
// backend paying ~200µs of simulated DBMS latency per request. depth is the
// number of concurrent callers; depth=1 is the old lockstep behavior.
func BenchmarkClientPipelined(b *testing.B) {
	p, err := experiments.NewPipelineBench(200 * time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			if err := p.Do(depth, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

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

// benchWALInsert measures acknowledged inserts under one durability
// configuration (the B-series for PR 5). The grouped variant runs the insert
// loop from parallel goroutines so concurrent commits coalesce onto shared
// fsyncs (DESIGN.md §15).
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
