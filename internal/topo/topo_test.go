package topo

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
)

// mustOpen replaces the removed geodb.MustOpen for tests: Open or fail the
// test. The library's open/recovery path returns errors instead of
// panicking, so a corrupt page file degrades gracefully in servers.
func mustOpen(t testing.TB, opts geodb.Options) *geodb.DB {
	t.Helper()
	db, err := geodb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var ctx = event.Context{User: "op", Application: "maintenance"}

// cityWorld builds a schema with zones (regions), ducts (lines) and poles
// (points) — the [11] constraint scenario.
func cityWorld(t testing.TB) (*geodb.DB, *active.Engine, *Guard) {
	t.Helper()
	db := mustOpen(t, geodb.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineSchema("city"))
	must(db.DefineClass("city", catalog.Class{
		Name: "Zone",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("region", catalog.Scalar(catalog.KindGeometry)),
		},
	}))
	must(db.DefineClass("city", catalog.Class{
		Name: "Pole",
		Attrs: []catalog.Field{
			catalog.F("location", catalog.Scalar(catalog.KindGeometry)),
		},
	}))
	must(db.DefineClass("city", catalog.Class{
		Name: "Duct",
		Attrs: []catalog.Field{
			catalog.F("path", catalog.Scalar(catalog.KindGeometry)),
		},
	}))
	must(db.DefineClass("city", catalog.Class{
		Name:  "Office",
		Attrs: []catalog.Field{catalog.F("label", catalog.Scalar(catalog.KindText))},
	}))
	engine := active.NewEngine()
	db.Bus().Subscribe(engine)
	return db, engine, NewGuard(db)
}

func insertZone(t testing.TB, db *geodb.DB, name string, r geom.Rect) catalog.OID {
	t.Helper()
	oid, err := db.InsertMap(ctx, "city", "Zone", map[string]catalog.Value{
		"name":   catalog.TextVal(name),
		"region": catalog.GeomVal(r.AsPolygon()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestValidate(t *testing.T) {
	db, _, _ := cityWorld(t)
	cat := db.Catalog()
	good := Constraint{Name: "c", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require}
	if err := good.Validate(cat); err != nil {
		t.Fatal(err)
	}
	bad := []Constraint{
		{},
		{Name: "x", Schema: "city", Class: "Pole", With: "Zone", Relation: geom.Inside},
		{Name: "x", Schema: "city", Class: "Pole", With: "Zone", Mode: Forbid},
		{Name: "x", Schema: "ghost", Class: "Pole", With: "Zone", Relation: geom.Inside, Mode: Require},
		{Name: "x", Schema: "city", Class: "Ghost", With: "Zone", Relation: geom.Inside, Mode: Require},
		{Name: "x", Schema: "city", Class: "Pole", With: "Office", Relation: geom.Inside, Mode: Require},
	}
	for i, c := range bad {
		if err := c.Validate(cat); !errors.Is(err, ErrBadConstraint) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestRequireInsideZone(t *testing.T) {
	db, engine, guard := cityWorld(t)
	insertZone(t, db, "center", geom.R(0, 0, 100, 100))
	if err := guard.Install(engine, Constraint{
		Name: "pole-in-zone", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require,
	}); err != nil {
		t.Fatal(err)
	}
	// Inside the zone: accepted.
	oid, err := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(50, 50)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Outside every zone: vetoed.
	_, err = db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(500, 500)),
	})
	if !errors.Is(err, geodb.ErrVetoed) {
		t.Fatalf("outside insert: %v", err)
	}
	if db.Count("city", "Pole") != 1 {
		t.Fatal("vetoed insert persisted")
	}
	// Updates are guarded too: moving the pole out of the zone is vetoed.
	err = db.UpdateAttr(ctx, oid, "location", catalog.GeomVal(geom.Pt(900, 900)))
	if !errors.Is(err, geodb.ErrVetoed) {
		t.Fatalf("escaping update: %v", err)
	}
	// Moving within the zone is fine.
	if err := db.UpdateAttr(ctx, oid, "location", catalog.GeomVal(geom.Pt(60, 60))); err != nil {
		t.Fatal(err)
	}
	if guard.Vetoes.Load() != 2 {
		t.Fatalf("vetoes = %d", guard.Vetoes.Load())
	}
}

func TestForbidEqualPoles(t *testing.T) {
	db, engine, guard := cityWorld(t)
	if err := guard.Install(engine, Constraint{
		Name: "poles-distinct", Schema: "city", Class: "Pole", With: "Pole",
		Relation: geom.EqualRel, Mode: Forbid,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(10, 10))}); err != nil {
		t.Fatal(err)
	}
	// Same location: vetoed (self-exclusion does not apply to a new OID).
	_, err := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(10, 10))})
	if !errors.Is(err, geodb.ErrVetoed) {
		t.Fatalf("duplicate location: %v", err)
	}
	// Different location: fine.
	if _, err := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(11, 10))}); err != nil {
		t.Fatal(err)
	}
}

func TestForbidZoneOverlap(t *testing.T) {
	db, engine, guard := cityWorld(t)
	if err := guard.Install(engine, Constraint{
		Name: "zones-disjoint", Schema: "city", Class: "Zone", With: "Zone",
		Relation: geom.Overlap, Mode: Forbid,
	}); err != nil {
		t.Fatal(err)
	}
	insertZone(t, db, "a", geom.R(0, 0, 10, 10))
	// Meeting at an edge is not overlap: allowed.
	insertZone(t, db, "b", geom.R(10, 0, 20, 10))
	// Overlapping: vetoed.
	_, err := db.InsertMap(ctx, "city", "Zone", map[string]catalog.Value{
		"name":   catalog.TextVal("c"),
		"region": catalog.GeomVal(geom.R(5, 5, 15, 15).AsPolygon()),
	})
	if !errors.Is(err, geodb.ErrVetoed) {
		t.Fatalf("overlapping zone: %v", err)
	}
	if db.Count("city", "Zone") != 2 {
		t.Fatalf("zones = %d", db.Count("city", "Zone"))
	}
}

func TestUpdateSelfExclusion(t *testing.T) {
	db, engine, guard := cityWorld(t)
	if err := guard.Install(engine, Constraint{
		Name: "zones-disjoint", Schema: "city", Class: "Zone", With: "Zone",
		Relation: geom.Overlap, Mode: Forbid,
	}); err != nil {
		t.Fatal(err)
	}
	z := insertZone(t, db, "a", geom.R(0, 0, 10, 10))
	// Growing the zone in place must not collide with itself.
	err := db.UpdateAttr(ctx, z, "region", catalog.GeomVal(geom.R(0, 0, 12, 12).AsPolygon()))
	if err != nil {
		t.Fatalf("self-collision on update: %v", err)
	}
}

func TestLineConstraints(t *testing.T) {
	db, engine, guard := cityWorld(t)
	insertZone(t, db, "center", geom.R(0, 0, 100, 100))
	if err := guard.Install(engine, Constraint{
		Name: "duct-in-zone", Schema: "city", Class: "Duct", With: "Zone",
		Relation: geom.Inside, Mode: Require,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMap(ctx, "city", "Duct", map[string]catalog.Value{
		"path": catalog.GeomVal(geom.LineString{geom.Pt(10, 10), geom.Pt(90, 90)}),
	}); err != nil {
		t.Fatal(err)
	}
	_, err := db.InsertMap(ctx, "city", "Duct", map[string]catalog.Value{
		"path": catalog.GeomVal(geom.LineString{geom.Pt(10, 10), geom.Pt(900, 90)}),
	})
	if !errors.Is(err, geodb.ErrVetoed) {
		t.Fatalf("escaping duct: %v", err)
	}
}

func TestRelateGeometries(t *testing.T) {
	zone := geom.R(0, 0, 10, 10).AsPolygon()
	cases := []struct {
		a, b geom.Geometry
		want geom.Relation
	}{
		{geom.Pt(5, 5), zone, geom.Inside},
		{geom.Pt(0, 5), zone, geom.Meet},
		{geom.Pt(50, 50), zone, geom.Disjoint},
		{zone, geom.Pt(5, 5), geom.ContainsRel},
		{geom.Pt(1, 1), geom.Pt(1, 1), geom.EqualRel},
		{geom.Pt(1, 1), geom.Pt(2, 2), geom.Disjoint},
		{geom.LineString{geom.Pt(1, 1), geom.Pt(9, 9)}, zone, geom.Inside},
		{geom.LineString{geom.Pt(5, 5), geom.Pt(50, 5)}, zone, geom.Overlap},
		{geom.LineString{geom.Pt(20, 20), geom.Pt(30, 30)}, zone, geom.Disjoint},
		{geom.LineString{geom.Pt(0, 0), geom.Pt(5, 5)},
			geom.LineString{geom.Pt(0, 5), geom.Pt(5, 0)}, geom.Overlap},
		{geom.LineString{geom.Pt(0, 0), geom.Pt(1, 1)},
			geom.LineString{geom.Pt(5, 5), geom.Pt(6, 6)}, geom.Disjoint},
		{geom.Pt(3, 3), geom.LineString{geom.Pt(0, 0), geom.Pt(6, 6)}, geom.Meet},
		{geom.R(0, 0, 4, 4), geom.R(2, 2, 6, 6), geom.Overlap},
		{nil, zone, geom.Disjoint},
	}
	for i, c := range cases {
		if got := RelateGeometries(c.a, c.b); got != c.want {
			t.Errorf("case %d: RelateGeometries = %v, want %v", i, got, c.want)
		}
	}
}

func TestCertify(t *testing.T) {
	db, engine, guard := cityWorld(t)
	// Insert violating data BEFORE installing the constraint: pole outside
	// any zone.
	insertZone(t, db, "center", geom.R(0, 0, 10, 10))
	inZone, _ := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(5, 5))})
	outZone, _ := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
		"location": catalog.GeomVal(geom.Pt(500, 500))})
	c := Constraint{Name: "pole-in-zone", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require}
	violations, err := guard.Certify(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || violations[0].OID != outZone {
		t.Fatalf("violations = %+v (in=%d out=%d)", violations, inZone, outZone)
	}
	// After installing the rule, fixing the violation succeeds and the
	// certification comes back clean.
	if err := guard.Install(engine, c); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAttr(ctx, outZone, "location", catalog.GeomVal(geom.Pt(2, 2))); err != nil {
		t.Fatal(err)
	}
	violations, _ = guard.Certify(c)
	if len(violations) != 0 {
		t.Fatalf("post-fix violations = %+v", violations)
	}
}

func TestInstallValidatesFirst(t *testing.T) {
	_, engine, guard := cityWorld(t)
	err := guard.Install(engine, Constraint{Name: "bad", Schema: "ghost",
		Class: "Pole", With: "Zone", Relation: geom.Inside, Mode: Require})
	if !errors.Is(err, ErrBadConstraint) {
		t.Fatalf("bad constraint installed: %v", err)
	}
	if engine.RuleCount() != 0 {
		t.Fatal("rules leaked from failed install")
	}
}

func TestNonGeometryMutationsPass(t *testing.T) {
	db, engine, guard := cityWorld(t)
	if err := guard.Install(engine, Constraint{
		Name: "office-free", Schema: "city", Class: "Office", With: "Zone",
		Relation: geom.Inside, Mode: Require,
	}); err == nil {
		t.Fatal("constraint on geometry-less class must fail validation")
	}
	// A constraint on Pole does not affect Office mutations.
	if err := guard.Install(engine, Constraint{
		Name: "pole-in-zone", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMap(ctx, "city", "Office", map[string]catalog.Value{
		"label": catalog.TextVal("HQ")}); err != nil {
		t.Fatal(err)
	}
}

// TestTxnChecksSeeEarlierOps checks a transaction's ops against the state
// its earlier ops build: a buffered insert is a candidate, a buffered update
// replaces the committed geometry and a buffered delete hides it.
func TestTxnChecksSeeEarlierOps(t *testing.T) {
	zonesDisjoint := Constraint{Name: "zones-disjoint", Schema: "city", Class: "Zone", With: "Zone",
		Relation: geom.Overlap, Mode: Forbid}
	poleInZone := Constraint{Name: "pole-in-zone", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require}
	world := func(t *testing.T, cs ...Constraint) *geodb.DB {
		db, engine, guard := cityWorld(t)
		for _, c := range cs {
			if err := guard.Install(engine, c); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	values := func(t *testing.T, db *geodb.DB, class string, m map[string]catalog.Value) []catalog.Value {
		v, err := db.ValuesFromMap("city", class, m)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	zone := func(t *testing.T, db *geodb.DB, r geom.Rect) []catalog.Value {
		return values(t, db, "Zone", map[string]catalog.Value{"region": catalog.GeomVal(r.AsPolygon())})
	}
	pole := func(t *testing.T, db *geodb.DB, x, y float64) []catalog.Value {
		return values(t, db, "Pole", map[string]catalog.Value{"location": catalog.GeomVal(geom.Pt(x, y))})
	}
	commit := func(t *testing.T, txn *geodb.Txn) {
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("overlapping zones in one transaction", func(t *testing.T) {
		db := world(t, zonesDisjoint)
		txn := db.Begin(ctx)
		if _, err := txn.Insert("city", "Zone", zone(t, db, geom.R(0, 0, 100, 100))); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Insert("city", "Zone", zone(t, db, geom.R(50, 50, 150, 150))); !errors.Is(err, geodb.ErrVetoed) {
			t.Fatalf("second overlapping zone: %v", err)
		}
		commit(t, txn)
		if n := db.Count("city", "Zone"); n != 1 {
			t.Fatalf("zones = %d, want 1", n)
		}
	})
	t.Run("pole inside a zone of the same transaction", func(t *testing.T) {
		db := world(t, poleInZone)
		txn := db.Begin(ctx)
		if _, err := txn.Insert("city", "Zone", zone(t, db, geom.R(1000, 1000, 1100, 1100))); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Insert("city", "Pole", pole(t, db, 1050, 1050)); err != nil {
			t.Fatalf("pole in the transaction's zone: %v", err)
		}
		commit(t, txn)
		if db.Count("city", "Zone") != 1 || db.Count("city", "Pole") != 1 {
			t.Fatalf("zones = %d, poles = %d, want 1 and 1", db.Count("city", "Zone"), db.Count("city", "Pole"))
		}
	})
	t.Run("an update replaces the committed geometry", func(t *testing.T) {
		db := world(t, zonesDisjoint)
		a := insertZone(t, db, "a", geom.R(0, 0, 100, 100))
		txn := db.Begin(ctx)
		if err := txn.Update(a, zone(t, db, geom.R(200, 200, 300, 300))); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Insert("city", "Zone", zone(t, db, geom.R(50, 50, 150, 150))); err != nil {
			t.Fatalf("zone where the moved one stood: %v", err)
		}
		if _, err := txn.Insert("city", "Zone", zone(t, db, geom.R(250, 250, 350, 350))); !errors.Is(err, geodb.ErrVetoed) {
			t.Fatalf("zone over the moved one: %v", err)
		}
		commit(t, txn)
	})
	t.Run("a delete hides the committed instance", func(t *testing.T) {
		db := world(t, poleInZone)
		z := insertZone(t, db, "center", geom.R(0, 0, 100, 100))
		txn := db.Begin(ctx)
		if err := txn.Delete(z); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Insert("city", "Pole", pole(t, db, 50, 50)); !errors.Is(err, geodb.ErrVetoed) {
			t.Fatalf("pole in a zone the transaction deleted: %v", err)
		}
		commit(t, txn)
		if db.Count("city", "Zone") != 0 || db.Count("city", "Pole") != 0 {
			t.Fatal("the deleted zone or the vetoed pole is still stored")
		}
	})
}

// TestGuardCountersConcurrent inserts guarded poles from several goroutines
// at once: under -race, the counters must count every check and veto
// without a data race.
func TestGuardCountersConcurrent(t *testing.T) {
	db, engine, guard := cityWorld(t)
	insertZone(t, db, "center", geom.R(0, 0, 100, 100))
	if err := guard.Install(engine, Constraint{
		Name: "pole-in-zone", Schema: "city", Class: "Pole", With: "Zone",
		Relation: geom.Inside, Mode: Require,
	}); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				x := float64(10 + i%80)
				if i%3 == 0 {
					x += 500 // outside the zone: vetoed
				}
				_, err := db.InsertMap(ctx, "city", "Pole", map[string]catalog.Value{
					"location": catalog.GeomVal(geom.Pt(x, float64(10+w)))})
				if i%3 == 0 && !errors.Is(err, geodb.ErrVetoed) || i%3 != 0 && err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := guard.Checks.Load(); got != workers*each {
		t.Errorf("checks = %d, want %d", got, workers*each)
	}
	if got := guard.Vetoes.Load(); got != workers*each/3 {
		t.Errorf("vetoes = %d, want %d", got, workers*each/3)
	}
}
