package ui

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
)

// ruleVetoingInsertAt vetoes Pole inserts at exactly the given point.
func ruleVetoingInsertAt(p geom.Point, veto error) active.Rule {
	return active.Rule{
		Name:   "test-veto",
		Family: active.FamilyConstraint,
		On:     event.PreInsert,
		Class:  "Pole",
		React: func(e event.Event, _ active.Emitter) error {
			for _, v := range e.New {
				if v.Kind == catalog.KindGeometry && v.Geom != nil {
					if pt, ok := v.Geom.(geom.Point); ok && pt.Equal(p) {
						return veto
					}
				}
			}
			return nil
		},
	}
}

// scenarioValues builds pole values in effective-attribute order.
func poleValues(t testing.TB, w *world, x, y float64) []catalog.Value {
	t.Helper()
	values, err := w.db.ValuesFromMap("phone_net", "Pole", map[string]catalog.Value{
		"pole_type":     catalog.IntVal(9),
		"pole_location": catalog.GeomVal(geom.Pt(x, y)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return values
}

func TestScenarioLifecycle(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()

	if _, err := s.OpenClassSimulated("phone_net", "Pole"); !errors.Is(err, ErrNoScenario) {
		t.Fatalf("simulated open without scenario: %v", err)
	}
	if err := s.StartScenario("what-if"); err != nil {
		t.Fatal(err)
	}
	if err := s.StartScenario("again"); !errors.Is(err, ErrScenarioActive) {
		t.Fatalf("double start: %v", err)
	}

	// Hypothetical changes: add a pole, move one, delete one.
	hyp, err := s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 500, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioUpdate(w.poles[0], poleValues(t, w, 999, 999)); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioDelete(w.poles[1]); err != nil {
		t.Fatal(err)
	}

	win, err := s.OpenClassSimulated("phone_net", "Pole")
	if err != nil {
		t.Fatal(err)
	}
	// 6 real poles - 1 deleted + 1 hypothetical = 6 shapes.
	shapes := win.Find("map").Shapes
	if len(shapes) != 6 {
		t.Fatalf("scenario shapes = %d", len(shapes))
	}
	byOID := map[uint64]geom.Geometry{}
	for _, sh := range shapes {
		byOID[sh.OID] = sh.Geom
	}
	if _, ok := byOID[uint64(w.poles[1])]; ok {
		t.Fatal("hypothetically deleted pole still shown")
	}
	if g := byOID[uint64(w.poles[0])]; g == nil || g.WKT() != "POINT (999 999)" {
		t.Fatalf("hypothetical move not shown: %v", g)
	}
	if _, ok := byOID[uint64(hyp)]; !ok {
		t.Fatal("hypothetical pole missing")
	}
	if win.Prop("scenario") != "what-if" {
		t.Fatal("scenario tag missing")
	}

	// The database itself is untouched.
	if got := w.db.Count("phone_net", "Pole"); got != 6 {
		t.Fatalf("db extension changed: %d", got)
	}
	real0, _ := w.db.GetValue(mariaCtx(), w.poles[0])
	if g, _ := real0.Geometry(); g.WKT() == "POINT (999 999)" {
		t.Fatal("scenario leaked into the database")
	}

	// Drop discards everything.
	if err := s.DropScenario(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropScenario(); !errors.Is(err, ErrNoScenario) {
		t.Fatalf("double drop: %v", err)
	}
}

// TestScenarioLocatesUndrawnInstance: a Class set reply leaves out an
// instance without geometry, so a scenario update that gives it one must
// still put it on the scenario's map, in OID order, while an update of
// another class's instance stays off it.
func TestScenarioLocatesUndrawnInstance(t *testing.T) {
	w := newWorld(t, false)
	unlocated, err := w.db.InsertMap(mariaCtx(), "phone_net", "Pole", map[string]catalog.Value{
		"pole_type": catalog.IntVal(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("locate")
	if err := s.ScenarioUpdate(unlocated, poleValues(t, w, 7, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioUpdate(w.poles[0], poleValues(t, w, 999, 999)); err != nil {
		t.Fatal(err)
	}
	win, err := s.OpenClassSimulated("phone_net", "Pole")
	if err != nil {
		t.Fatal(err)
	}
	shapes := win.Find("map").Shapes
	if len(shapes) != len(w.poles)+1 {
		t.Fatalf("scenario shapes = %d, want %d", len(shapes), len(w.poles)+1)
	}
	last := shapes[len(shapes)-1]
	if last.OID != uint64(unlocated) || last.Geom.WKT() != "POINT (7 7)" {
		t.Fatalf("last shape = %d %v, want the located pole %d at (7 7)", last.OID, last.Geom, unlocated)
	}
	dwin, err := s.OpenClassSimulated("phone_net", "Duct")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dwin.Find("map").Shapes); n != 0 {
		t.Fatalf("a pole update drew %d shapes on the Duct map", n)
	}
}

func TestScenarioUpdateDeleteHypothetical(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("x")
	hyp, _ := s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 1, 1))
	if err := s.ScenarioUpdate(hyp, poleValues(t, w, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioDelete(hyp); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioUpdate(hyp, nil); err == nil {
		t.Fatal("update of removed hypothetical object")
	}
	if err := s.ScenarioDelete(hyp); err == nil {
		t.Fatal("double delete of hypothetical object")
	}
	// A real object deleted in the scenario cannot be updated there either:
	// the commit would delete it and then fail to update it.
	if err := s.ScenarioDelete(w.poles[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioUpdate(w.poles[0], poleValues(t, w, 3, 3)); !errors.Is(err, geodb.ErrNoInstance) {
		t.Fatalf("update of a hypothetically deleted object: %v", err)
	}
	if err := s.CommitScenario(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioCommit(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("build-out")
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 500, 500))
	s.ScenarioUpdate(w.poles[0], poleValues(t, w, 777, 777))
	s.ScenarioDelete(w.poles[1])
	if err := s.CommitScenario(); err != nil {
		t.Fatal(err)
	}
	// 6 - 1 + 1 = 6 instances, with the update applied.
	if got := w.db.Count("phone_net", "Pole"); got != 6 {
		t.Fatalf("after commit: %d", got)
	}
	in, err := w.db.GetValue(mariaCtx(), w.poles[0])
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := in.Geometry(); g.WKT() != "POINT (777 777)" {
		t.Fatalf("committed update = %v", g)
	}
	if _, err := w.db.GetValue(mariaCtx(), w.poles[1]); err == nil {
		t.Fatal("committed delete missing")
	}
	if _, active := s.Scenario(); active {
		t.Fatal("scenario should clear after commit")
	}
}

func TestScenarioCommitGuardedByConstraints(t *testing.T) {
	// Commit submits the scenario as one transaction whose ops pass the
	// constraint rules, so a PreInsert veto refuses it — the heart of
	// simulation: test a hypothesis safely.
	w := newWorld(t, false)
	veto := errors.New("forbidden region")
	w.engine.AddRule(ruleVetoingInsertAt(geom.Pt(500, 500), veto))
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("risky")
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 500, 500))
	// Building the simulated window works: no mutation yet.
	if _, err := s.OpenClassSimulated("phone_net", "Pole"); err != nil {
		t.Fatal(err)
	}
	err := s.CommitScenario()
	if err == nil || !strings.Contains(err.Error(), "forbidden region") {
		t.Fatalf("commit not vetoed: %v", err)
	}
	// The scenario survives a failed commit for correction.
	if _, active := s.Scenario(); !active {
		t.Fatal("scenario should remain after failed commit")
	}
}

func TestWeakBackendCannotCommit(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(nonMutatingBackend{w.backend}, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("x")
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 1, 1))
	if err := s.CommitScenario(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit over a backend without transactions: %v", err)
	}
}

// nonMutatingBackend hides the TxnMutator capability.
type nonMutatingBackend struct{ Backend }

func TestViewRefresh(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.OpenSchema("phone_net")
	s.OpenClass("phone_net", "Pole")
	unwatch, err := s.WatchUpdates(w.engine)
	if err != nil {
		t.Fatal(err)
	}
	defer unwatch()

	if got := s.Stale(); len(got) != 0 {
		t.Fatalf("fresh session stale = %v", got)
	}
	// Another actor inserts a pole: the open window goes stale.
	sup := w.poles[0] // any ref will do for the supplier-less insert
	_ = sup
	if _, err := w.db.InsertMap(mariaCtx(), "phone_net", "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(123, 321)),
	}); err != nil {
		t.Fatal(err)
	}
	stale := s.Stale()
	if len(stale) != 1 || stale[0] != "classset:Pole" {
		t.Fatalf("stale = %v", stale)
	}
	before, _ := s.Window("classset:Pole")
	nBefore := len(before.Find("map").Shapes)
	ok, err := s.Refresh("classset:Pole")
	if err != nil || !ok {
		t.Fatalf("refresh = %v, %v", ok, err)
	}
	after, _ := s.Window("classset:Pole")
	if got := len(after.Find("map").Shapes); got != nBefore+1 {
		t.Fatalf("refreshed shapes = %d, want %d", got, nBefore+1)
	}
	// Refreshing again is a no-op.
	if ok, _ := s.Refresh("classset:Pole"); ok {
		t.Fatal("second refresh should be a no-op")
	}
	// Mutations of other classes do not stale the Pole window.
	if _, err := w.db.InsertMap(mariaCtx(), "phone_net", "Duct", map[string]catalog.Value{
		"duct_path": catalog.GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(1, 1)}),
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stale(); len(got) != 0 {
		t.Fatalf("unrelated mutation staled: %v", got)
	}
	// Unwatch removes the rules.
	unwatch()
	w.db.InsertMap(mariaCtx(), "phone_net", "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(5, 5)),
	})
	if got := s.Stale(); len(got) != 0 {
		t.Fatalf("stale after unwatch: %v", got)
	}
}

func TestRefreshAll(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.OpenSchema("phone_net")
	s.OpenClass("phone_net", "Pole")
	s.OpenClass("phone_net", "Duct")
	unwatch, err := s.WatchUpdates(w.engine)
	if err != nil {
		t.Fatal(err)
	}
	defer unwatch()
	w.db.InsertMap(mariaCtx(), "phone_net", "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(1, 2))})
	w.db.InsertMap(mariaCtx(), "phone_net", "Duct", map[string]catalog.Value{
		"duct_path": catalog.GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(1, 1)})})
	n, err := s.RefreshAll()
	if err != nil || n != 2 {
		t.Fatalf("RefreshAll = %d, %v", n, err)
	}
}

func TestScenarioCommitRetryDoesNotDuplicate(t *testing.T) {
	w := newWorld(t, false)
	veto := errors.New("forbidden region")
	w.engine.AddRule(ruleVetoingInsertAt(geom.Pt(500, 500), veto))
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.StartScenario("retry")
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 100, 100)) // ok
	bad, _ := s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 500, 500))
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 200, 200)) // after the bad one

	if err := s.CommitScenario(); err == nil {
		t.Fatal("commit should fail on the vetoed insert")
	}
	// The veto refuses the whole scenario: the good insert before it is not
	// applied either.
	if got := w.db.Count("phone_net", "Pole"); got != 6 {
		t.Fatalf("after failed commit: %d poles, want 6", got)
	}
	// Correct the scenario and retry: each good insert lands exactly once.
	if err := s.ScenarioDelete(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitScenario(); err != nil {
		t.Fatal(err)
	}
	if got := w.db.Count("phone_net", "Pole"); got != 8 {
		t.Fatalf("after retry: %d poles, want 8 (no duplicates)", got)
	}
}

func TestOpenClassZoomed(t *testing.T) {
	w := newWorld(t, true)
	s := NewSession(w.backend, w.builder, julianoCtx())
	s.Connect()
	// Poles sit at (0,0),(10,5),(20,10),(30,15),(40,20),(50,25).
	win, err := s.OpenClassZoomed("phone_net", "Pole", geom.R(0, 0, 25, 25))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(win.Find("map").Shapes); got != 3 {
		t.Fatalf("zoomed shapes = %d, want 3", got)
	}
	if win.Prop("viewport") == "" {
		t.Fatal("viewport not recorded")
	}
	// Class customization applies to zoomed windows too.
	if win.Find("poleWidget") == nil {
		t.Fatal("customization lost in zoom")
	}
	// The zoom menu item drives the same path.
	if err := s.Interact("classset:Pole", "zoom", "click", geom.R(0, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	win2, _ := s.Window("classset:Pole")
	if got := len(win2.Find("map").Shapes); got != 6 {
		t.Fatalf("zoom-out shapes = %d, want 6", got)
	}
	// Zoom without a viewport payload is the benign generic behaviour.
	if err := s.Interact("classset:Pole", "zoom", "click", nil); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioCommitIsOneTransaction commits a scenario of several
// mutations on a WAL-backed database: one group, one fsync. A vetoed
// commit then changes nothing — not the database, not the workspace, not
// the log.
func TestScenarioCommitIsOneTransaction(t *testing.T) {
	w := newWorldOn(t, false, geodb.Options{Name: "GEO", Path: filepath.Join(t.TempDir(), "geo.db")})
	defer w.db.Close()
	w.engine.AddRule(ruleVetoingInsertAt(geom.Pt(500, 500), errors.New("forbidden region")))
	syncs := obs.Default().Counter("gis_wal_syncs_total")
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	location := func(oid catalog.OID) string {
		t.Helper()
		in, err := w.db.GetValue(mariaCtx(), oid)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := in.Geometry()
		return g.WKT()
	}

	s.StartScenario("build-out")
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 100, 100))
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 200, 200))
	s.ScenarioUpdate(w.poles[0], poleValues(t, w, 777, 777))
	s.ScenarioDelete(w.poles[1])
	before := syncs.Value()
	if err := s.CommitScenario(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Value() - before; got != 1 {
		t.Fatalf("commit of 4 mutations took %d WAL syncs, want 1", got)
	}
	if got := w.db.Count("phone_net", "Pole"); got != 7 {
		t.Fatalf("after commit: %d poles, want 7", got)
	}
	if got := location(w.poles[0]); got != "POINT (777 777)" {
		t.Fatalf("moved pole at %s", got)
	}

	s.StartScenario("overreach")
	s.ScenarioUpdate(w.poles[2], poleValues(t, w, 300, 300))
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 400, 400))
	s.ScenarioInsert("phone_net", "Pole", poleValues(t, w, 500, 500)) // vetoed
	s.ScenarioDelete(w.poles[3])
	sc, _ := s.Scenario()
	shape := func() [3]int { return [3]int{len(sc.added), len(sc.updated), len(sc.deleted)} }
	wantShape, wantLocation := shape(), location(w.poles[2])
	before = syncs.Value()
	if err := s.CommitScenario(); err == nil || !strings.Contains(err.Error(), "forbidden region") {
		t.Fatalf("commit not vetoed: %v", err)
	}
	if got := syncs.Value() - before; got != 0 {
		t.Fatalf("vetoed commit took %d WAL syncs", got)
	}
	if got := w.db.Count("phone_net", "Pole"); got != 7 {
		t.Fatalf("after vetoed commit: %d poles, want 7", got)
	}
	if got := location(w.poles[2]); got != wantLocation {
		t.Fatalf("vetoed commit moved the pole to %s", got)
	}
	if got, active := s.Scenario(); !active || got != sc || shape() != wantShape {
		t.Fatalf("workspace changed by the vetoed commit: %v, want %v", shape(), wantShape)
	}
}
