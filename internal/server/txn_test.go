package server

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/builder"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/ui"
	"repro/internal/workload"
)

var (
	poleInZone = topo.Constraint{Name: "pole-in-zone", Schema: workload.SchemaName, Class: "Pole",
		With: "Zone", Relation: geom.Inside, Mode: topo.Require}
	zonesDisjoint = topo.Constraint{Name: "zones-disjoint", Schema: workload.SchemaName, Class: "Zone",
		With: "Zone", Relation: geom.Overlap, Mode: topo.Forbid}
)

// guardedServer serves db with the constraints installed and returns a
// client connected to it.
func guardedServer(t *testing.T, db *geodb.DB, cs ...topo.Constraint) *client.Client {
	t.Helper()
	engine := active.NewEngine()
	backend := ui.NewDirectBackend(db, engine)
	guard := topo.NewGuard(db)
	for _, c := range cs {
		if err := guard.Install(engine, c); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// values arranges named values for a phone_net class.
func values(t *testing.T, db *geodb.DB, class string, m map[string]catalog.Value) []catalog.Value {
	t.Helper()
	v, err := db.ValuesFromMap(workload.SchemaName, class, m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTxnVerbChecksSeeEarlierOps sends batches over the txn verb whose
// constraint checks depend on the batch's own earlier ops.
func TestTxnVerbChecksSeeEarlierOps(t *testing.T) {
	db := mustOpen(t, geodb.Options{})
	if err := workload.DefineSchema(db); err != nil {
		t.Fatal(err)
	}
	c := guardedServer(t, db, zonesDisjoint, poleInZone)
	ctx := event.Context{User: "maria", Application: "pole_manager"}
	zone := func(r geom.Rect) ui.TxnOp {
		return ui.TxnOp{Kind: ui.TxnInsert, Schema: workload.SchemaName, Class: "Zone",
			Values: values(t, db, "Zone", map[string]catalog.Value{"region": catalog.GeomVal(r.AsPolygon())})}
	}

	_, err := c.CommitTxn(ctx, []ui.TxnOp{zone(geom.R(0, 0, 100, 100)), zone(geom.R(50, 50, 150, 150))})
	if err == nil || !strings.Contains(err.Error(), "txn op 1") || !strings.Contains(err.Error(), "zones-disjoint") {
		t.Fatalf("overlapping zones in one batch: %v", err)
	}
	if n := db.Count(workload.SchemaName, "Zone"); n != 0 {
		t.Fatalf("refused batch stored %d zones", n)
	}

	pole := ui.TxnOp{Kind: ui.TxnInsert, Schema: workload.SchemaName, Class: "Pole",
		Values: values(t, db, "Pole", map[string]catalog.Value{"pole_location": catalog.GeomVal(geom.Pt(1050, 1050))})}
	oids, err := c.CommitTxn(ctx, []ui.TxnOp{zone(geom.R(1000, 1000, 1100, 1100)), pole})
	if err != nil {
		t.Fatalf("pole inside the batch's own zone: %v", err)
	}
	for i, class := range []string{"Zone", "Pole"} {
		in, err := db.GetValue(ctx, oids[i])
		if err != nil || in.Class != class {
			t.Fatalf("op %d committed %+v, %v; want a %s", i, in, err, class)
		}
	}
}

// TestScenarioCommitOverTCPIsOneTransaction commits a remote session's
// scenario of several mutations on a WAL-backed database: one txn request,
// one WAL fsync. A vetoed commit changes nothing — not the database, not the
// workspace, not the log.
func TestScenarioCommitOverTCPIsOneTransaction(t *testing.T) {
	db := mustOpen(t, geodb.Options{Path: filepath.Join(t.TempDir(), "geo.db")})
	defer db.Close()
	pn, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{Seed: 21, ZonesPerSide: 1, PolesPerZone: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := guardedServer(t, db, poleInZone)
	lib, err := workload.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	s := ui.NewSession(c, builder.New(lib, c), event.Context{User: "planner", Application: "pole_manager"})
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	syncs := obs.Default().Counter("gis_wal_syncs_total")
	pole := func(x, y float64) []catalog.Value {
		return values(t, db, "Pole", map[string]catalog.Value{
			"pole_supplier": catalog.RefVal(pn.Suppliers[0]),
			"pole_location": catalog.GeomVal(geom.Pt(x, y)),
		})
	}
	location := func(oid catalog.OID) string {
		t.Helper()
		in, err := db.GetValue(event.Context{}, oid)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := in.Geometry()
		return g.WKT()
	}
	count := func() int { return db.Count(workload.SchemaName, "Pole") }

	if err := s.StartScenario("north-expansion"); err != nil {
		t.Fatal(err)
	}
	s.ScenarioInsert(workload.SchemaName, "Pole", pole(800, 900))
	s.ScenarioInsert(workload.SchemaName, "Pole", pole(900, 950))
	s.ScenarioUpdate(pn.Poles[0], pole(50, 50))
	s.ScenarioDelete(pn.Poles[1])
	before := syncs.Value()
	if err := s.CommitScenario(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Value() - before; got != 1 {
		t.Fatalf("commit of 4 mutations took %d WAL syncs, want 1", got)
	}
	if got := count(); got != 6 {
		t.Fatalf("after commit: %d poles, want 6", got)
	}
	if got := location(pn.Poles[0]); got != "POINT (50 50)" {
		t.Fatalf("moved pole at %s", got)
	}

	if err := s.StartScenario("overreach"); err != nil {
		t.Fatal(err)
	}
	s.ScenarioUpdate(pn.Poles[2], pole(60, 60))
	s.ScenarioInsert(workload.SchemaName, "Pole", pole(700, 700))
	s.ScenarioInsert(workload.SchemaName, "Pole", pole(5000, 5000)) // outside every zone
	s.ScenarioDelete(pn.Poles[3])
	// The simulated window names every pole by OID, so it shows whether the
	// workspace still holds the hypothetical poles or the database now does.
	simulated := func() string {
		t.Helper()
		win, err := s.OpenClassSimulated(workload.SchemaName, "Pole")
		if err != nil {
			t.Fatal(err)
		}
		var shapes []string
		for _, sh := range win.Find("map").Shapes {
			shapes = append(shapes, fmt.Sprintf("%d %s", sh.OID, sh.Geom.WKT()))
		}
		sort.Strings(shapes)
		return strings.Join(shapes, "\n")
	}
	wantLocation, wantWorkspace := location(pn.Poles[2]), simulated()
	before = syncs.Value()
	if err := s.CommitScenario(); err == nil || !strings.Contains(err.Error(), "pole-in-zone") {
		t.Fatalf("commit not vetoed: %v", err)
	}
	if got := syncs.Value() - before; got != 0 {
		t.Fatalf("vetoed commit took %d WAL syncs", got)
	}
	if got := count(); got != 6 {
		t.Fatalf("after vetoed commit: %d poles, want 6", got)
	}
	if got := location(pn.Poles[2]); got != wantLocation {
		t.Fatalf("vetoed commit moved the pole to %s", got)
	}
	if got := simulated(); got != wantWorkspace {
		t.Fatalf("vetoed commit changed the workspace:\n%s\nwant\n%s", got, wantWorkspace)
	}
}
