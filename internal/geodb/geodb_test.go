package geodb

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/storage"
)

// mustOpen replaces the removed MustOpen for tests: Open or fail the
// test. The library's open/recovery path returns errors instead of
// panicking, so a corrupt page file degrades gracefully in servers.
func mustOpen(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var testCtx = event.Context{User: "juliano", Application: "pole_manager"}

// buildPhoneNet defines the paper's Section 4 schema: Supplier and Pole
// (Figure 5), plus a Duct class with line geometry.
func buildPhoneNet(t testing.TB) *DB {
	t.Helper()
	db := mustOpen(t, Options{Name: "GEO"})
	if err := db.DefineSchema("phone_net"); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineClass("phone_net", catalog.Class{
		Name: "Supplier",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("city", catalog.Scalar(catalog.KindText)),
		},
	}))
	must(db.DefineClass("phone_net", catalog.Class{
		Name: "Pole",
		Attrs: []catalog.Field{
			catalog.F("pole_type", catalog.Scalar(catalog.KindInteger)),
			catalog.F("pole_composition", catalog.TupleOf(
				catalog.F("pole_material", catalog.Scalar(catalog.KindText)),
				catalog.F("pole_diameter", catalog.Scalar(catalog.KindFloat)),
				catalog.F("pole_height", catalog.Scalar(catalog.KindFloat)),
			)),
			catalog.F("pole_supplier", catalog.RefTo("Supplier")),
			catalog.F("pole_location", catalog.Scalar(catalog.KindGeometry)),
			catalog.F("pole_picture", catalog.Scalar(catalog.KindBitmap)),
			catalog.F("pole_historic", catalog.Scalar(catalog.KindText)),
		},
		Methods: []catalog.Method{{Name: "get_supplier_name", Params: []string{"Supplier"}}},
	}))
	must(db.DefineClass("phone_net", catalog.Class{
		Name: "Duct",
		Attrs: []catalog.Field{
			catalog.F("duct_kind", catalog.Scalar(catalog.KindText)),
			catalog.F("duct_path", catalog.Scalar(catalog.KindGeometry)),
		},
	}))
	return db
}

func insertSupplier(t testing.TB, db *DB, name, city string) catalog.OID {
	t.Helper()
	oid, err := db.InsertMap(testCtx, "phone_net", "Supplier", map[string]catalog.Value{
		"name": catalog.TextVal(name),
		"city": catalog.TextVal(city),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func insertPole(t testing.TB, db *DB, supplier catalog.OID, x, y float64) catalog.OID {
	t.Helper()
	oid, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
		"pole_type": catalog.IntVal(1),
		"pole_composition": catalog.TupleVal(
			catalog.TextVal("wood"), catalog.FloatVal(0.3), catalog.FloatVal(9.5)),
		"pole_supplier": catalog.RefVal(supplier),
		"pole_location": catalog.GeomVal(geom.Pt(x, y)),
		"pole_historic": catalog.TextVal("installed 1995"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestInsertAndGetValue(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "Campinas")
	oid := insertPole(t, db, sup, 10, 20)
	in, err := db.GetValue(testCtx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if in.Class != "Pole" || in.Schema != "phone_net" {
		t.Fatalf("instance meta = %+v", in)
	}
	if v, ok := in.Get("pole_location"); !ok || v.Geom.WKT() != "POINT (10 20)" {
		t.Fatalf("pole_location = %v", v)
	}
	if v, ok := in.Get("pole_picture"); !ok || !v.IsNull() {
		t.Fatalf("unset attr should be null, got %v", v)
	}
	if g, ok := in.Geometry(); !ok || g.WKT() != "POINT (10 20)" {
		t.Fatal("Geometry accessor")
	}
	if _, ok := in.Get("nope"); ok {
		t.Fatal("unknown attribute lookup should fail")
	}
}

func TestInsertTypechecks(t *testing.T) {
	db := buildPhoneNet(t)
	_, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
		"pole_type": catalog.TextVal("not an int"),
	})
	if !errors.Is(err, catalog.ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
	_, err = db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
		"no_such_attr": catalog.IntVal(1),
	})
	if !errors.Is(err, catalog.ErrUnknown) {
		t.Fatalf("unknown attr: %v", err)
	}
	_, err = db.Insert(testCtx, "phone_net", "Pole", []catalog.Value{catalog.IntVal(1)})
	if !errors.Is(err, catalog.ErrTypeMismatch) {
		t.Fatalf("arity: %v", err)
	}
	_, err = db.Insert(testCtx, "phone_net", "Nope", nil)
	if !errors.Is(err, catalog.ErrUnknown) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestGetSchemaEmitsEventAndLists(t *testing.T) {
	db := buildPhoneNet(t)
	var events []event.Event
	db.Bus().Subscribe(event.HandlerFunc(func(e event.Event) error {
		events = append(events, e)
		return nil
	}))
	info, err := db.GetSchema(testCtx, "phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Classes) != 3 || info.Classes[1] != "Pole" {
		t.Fatalf("classes = %v", info.Classes)
	}
	if len(events) != 1 || events[0].Kind != event.GetSchema || events[0].Schema != "phone_net" {
		t.Fatalf("events = %v", events)
	}
	if events[0].Ctx.User != "juliano" {
		t.Fatal("context must flow into the event")
	}
	if _, err := db.GetSchema(testCtx, "nope"); !errors.Is(err, catalog.ErrUnknown) {
		t.Fatalf("unknown schema: %v", err)
	}
}

func TestGetClass(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "Campinas")
	var oids []catalog.OID
	for i := 0; i < 5; i++ {
		oids = append(oids, insertPole(t, db, sup, float64(i), float64(i)))
	}
	info, err := db.GetClass(testCtx, "phone_net", "Pole")
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := db.Shapes("phone_net", "Pole")
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 5 {
		t.Fatalf("extension size = %d", len(shapes))
	}
	for i := range oids {
		if shapes[i].OID != oids[i] {
			t.Fatal("extension must preserve insertion order")
		}
	}
	if info.GeometryAttr != "pole_location" {
		t.Fatalf("geometry attr = %q", info.GeometryAttr)
	}
	if got := db.Count("phone_net", "Pole"); got != 5 {
		t.Fatalf("count = %d", got)
	}
}

func TestUpdate(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "Campinas")
	oid := insertPole(t, db, sup, 1, 1)
	if err := db.UpdateAttr(testCtx, oid, "pole_historic", catalog.TextVal("painted 1996")); err != nil {
		t.Fatal(err)
	}
	in, _ := db.GetValue(testCtx, oid)
	if v, _ := in.Get("pole_historic"); v.Text != "painted 1996" {
		t.Fatalf("after update = %v", v)
	}
	// Geometry update must move the instance in the spatial index.
	if err := db.UpdateAttr(testCtx, oid, "pole_location", catalog.GeomVal(geom.Pt(100, 100))); err != nil {
		t.Fatal(err)
	}
	hits, err := db.Window("phone_net", "Pole", geom.R(99, 99, 101, 101))
	if err != nil || len(hits) != 1 || hits[0] != oid {
		t.Fatalf("window after move = %v, %v", hits, err)
	}
	if hits, _ := db.Window("phone_net", "Pole", geom.R(0, 0, 2, 2)); len(hits) != 0 {
		t.Fatalf("old location still indexed: %v", hits)
	}
	if err := db.UpdateAttr(testCtx, oid, "bogus", catalog.Null); !errors.Is(err, catalog.ErrUnknown) {
		t.Fatalf("unknown attr update: %v", err)
	}
}

func TestUpdateGrowingRecordRelocates(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	oid := insertPole(t, db, sup, 1, 1)
	// Fill the pole's page so an in-place grow is impossible.
	for i := 0; i < 40; i++ {
		insertPole(t, db, sup, float64(i), 0)
	}
	big := make([]byte, 3000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := db.UpdateAttr(testCtx, oid, "pole_picture", catalog.BitmapVal(big)); err != nil {
		t.Fatal(err)
	}
	in, err := db.GetValue(testCtx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Get("pole_picture"); len(v.Bitmap) != 3000 {
		t.Fatalf("bitmap len = %d", len(v.Bitmap))
	}
	// Location survives relocation and stays indexed.
	hits, _ := db.Window("phone_net", "Pole", geom.R(0.5, 0.5, 1.5, 1.5))
	if len(hits) != 1 || hits[0] != oid {
		t.Fatalf("window after relocation = %v", hits)
	}
}

func TestDelete(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	oid := insertPole(t, db, sup, 5, 5)
	if err := db.Delete(testCtx, oid); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetValue(testCtx, oid); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := db.Delete(testCtx, oid); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("double delete: %v", err)
	}
	if hits, _ := db.Window("phone_net", "Pole", geom.R(4, 4, 6, 6)); len(hits) != 0 {
		t.Fatalf("deleted instance still indexed: %v", hits)
	}
	if db.Count("phone_net", "Pole") != 0 {
		t.Fatal("extension not shrunk")
	}
}

func TestPreEventVeto(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	veto := errors.New("zone is frozen")
	db.Bus().Subscribe(event.HandlerFunc(func(e event.Event) error {
		if e.Kind == event.PreInsert && e.Class == "Pole" {
			return veto
		}
		return nil
	}))
	_, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(0, 0)),
	})
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("insert not vetoed: %v", err)
	}
	if db.Count("phone_net", "Pole") != 0 {
		t.Fatal("vetoed insert persisted")
	}
	// Supplier inserts are unaffected.
	if oid := insertSupplier(t, db, "Other", "Rio"); oid == 0 {
		t.Fatal("unrelated insert blocked")
	}
	_ = sup
}

func TestWindowQueriesIndexVsScan(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	for i := 0; i < 200; i++ {
		insertPole(t, db, sup, float64(i%20), float64(i/20))
	}
	w := geom.R(3.5, 2.5, 7.5, 6.5)
	indexed, err := db.Window("phone_net", "Pole", w)
	if err != nil {
		t.Fatal(err)
	}
	db.UseSpatialIndex = false
	scanned, err := db.Window("phone_net", "Pole", w)
	if err != nil {
		t.Fatal(err)
	}
	db.UseSpatialIndex = true
	if len(indexed) != len(scanned) {
		t.Fatalf("index %d hits, scan %d hits", len(indexed), len(scanned))
	}
	seen := map[catalog.OID]bool{}
	for _, o := range indexed {
		seen[o] = true
	}
	for _, o := range scanned {
		if !seen[o] {
			t.Fatalf("scan found %d that index missed", o)
		}
	}
	if len(indexed) != 16 { // 4 x 4 grid cells in window
		t.Fatalf("window hits = %d, want 16", len(indexed))
	}
}

// TestWindowConcurrentDelete races map zooms against a writer that inserts
// and deletes a pole inside the window. A pole deleted between the index
// search and its read must drop out of the result, not fail the zoom with
// ErrNoInstance. Each insert reuses the room the last delete freed, so
// the reads also race slot reuse on the same page.
func TestWindowConcurrentDelete(t *testing.T) {
	db := buildPhoneNet(t)
	w := geom.R(0, 0, 10, 10)
	started, stop := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			oid, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
				"pole_location": catalog.GeomVal(geom.Pt(5, 5)),
			})
			if err == nil {
				err = db.Delete(testCtx, oid)
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	<-started
	for i := 0; i < 3000; i++ {
		if _, err := db.ShapesInWindow("phone_net", "Pole", w); err != nil {
			t.Fatalf("ShapesInWindow, read %d: %v", i, err)
		}
	}
}

func TestSelectPredicate(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	for i := 0; i < 10; i++ {
		oid, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
			"pole_type":     catalog.IntVal(int64(i % 3)),
			"pole_supplier": catalog.RefVal(sup),
			"pole_location": catalog.GeomVal(geom.Pt(float64(i), 0)),
		})
		if err != nil || oid == 0 {
			t.Fatal(err)
		}
	}
	got, err := db.Select("phone_net", "Pole", func(in Instance) bool {
		v, _ := in.Get("pole_type")
		return v.Int == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("select = %d rows", len(got))
	}
	all, _ := db.Select("phone_net", "Pole", nil)
	if len(all) != 10 {
		t.Fatalf("select all = %d", len(all))
	}
}

func TestNearest(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "SP")
	var oids []catalog.OID
	for i := 0; i < 10; i++ {
		oids = append(oids, insertPole(t, db, sup, float64(i*10), 0))
	}
	got, err := db.Nearest("phone_net", "Pole", geom.Pt(42, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != oids[4] || got[1] != oids[5] {
		t.Fatalf("nearest = %v (oids %v)", got, oids)
	}
	if _, err := db.Nearest("phone_net", "Supplier", geom.Pt(0, 0), 1); err == nil {
		t.Fatal("nearest on non-spatial class should fail")
	}
}

func TestMethods(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME Postes", "Campinas")
	pole := insertPole(t, db, sup, 1, 1)
	err := db.RegisterMethod("phone_net", "Pole", "get_supplier_name",
		func(db *DB, self Instance, args ...catalog.Value) (catalog.Value, error) {
			ref, _ := self.Get("pole_supplier")
			if ref.Ref == catalog.NilOID {
				return catalog.TextVal(""), nil
			}
			supplier, err := db.GetValue(event.Context{}, ref.Ref)
			if err != nil {
				return catalog.Value{}, err
			}
			name, _ := supplier.Get("name")
			return name, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.CallMethod(pole, "get_supplier_name")
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != "ACME Postes" {
		t.Fatalf("method result = %v", got)
	}
	if _, err := db.CallMethod(pole, "no_such"); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("missing method: %v", err)
	}
	if err := db.RegisterMethod("phone_net", "Pole", "undeclared", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("undeclared method registration: %v", err)
	}
}

func TestMethodInheritance(t *testing.T) {
	db := mustOpen(t, Options{})
	db.DefineSchema("net")
	if err := db.DefineClass("net", catalog.Class{
		Name:    "Element",
		Attrs:   []catalog.Field{catalog.F("code", catalog.Scalar(catalog.KindInteger))},
		Methods: []catalog.Method{{Name: "describe"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("net", catalog.Class{Name: "Pole", Parent: "Element"}); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterMethod("net", "Element", "describe",
		func(db *DB, self Instance, args ...catalog.Value) (catalog.Value, error) {
			return catalog.TextVal("element " + self.Class), nil
		}); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert(testCtx, "net", "Pole", []catalog.Value{catalog.IntVal(7)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.CallMethod(oid, "describe")
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != "element Pole" {
		t.Fatalf("inherited method = %v", got)
	}
}

func TestConnectEmitsEvent(t *testing.T) {
	db := buildPhoneNet(t)
	var got []event.Event
	db.Bus().Subscribe(event.HandlerFunc(func(e event.Event) error {
		got = append(got, e)
		return nil
	}))
	if err := db.Connect(testCtx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != event.Connect || got[0].Schema != "GEO" {
		t.Fatalf("connect events = %v", got)
	}
}

func TestPersistentDBRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "geo.db")
	var poleOID, supOID catalog.OID
	{
		db := mustOpen(t, Options{Path: path, PoolSize: 32, Name: "GEO"})
		// Reuse the phone_net schema builder against this on-disk DB.
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(db.DefineSchema("phone_net"))
		must(db.DefineClass("phone_net", catalog.Class{
			Name: "Supplier",
			Attrs: []catalog.Field{
				catalog.F("name", catalog.Scalar(catalog.KindText)),
			},
		}))
		must(db.DefineClass("phone_net", catalog.Class{
			Name: "Pole",
			Attrs: []catalog.Field{
				catalog.F("pole_type", catalog.Scalar(catalog.KindInteger)),
				catalog.F("pole_supplier", catalog.RefTo("Supplier")),
				catalog.F("pole_location", catalog.Scalar(catalog.KindGeometry)),
			},
			Methods: []catalog.Method{{Name: "get_supplier_name", Params: []string{"Supplier"}}},
		}))
		var err error
		supOID, err = db.InsertMap(testCtx, "phone_net", "Supplier", map[string]catalog.Value{
			"name": catalog.TextVal("ACME")})
		must(err)
		for i := 0; i < 50; i++ {
			oid, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
				"pole_type":     catalog.IntVal(int64(i)),
				"pole_supplier": catalog.RefVal(supOID),
				"pole_location": catalog.GeomVal(geom.Pt(float64(i), float64(i))),
			})
			must(err)
			if i == 10 {
				poleOID = oid
			}
		}
		// Exercise an update before closing.
		must(db.UpdateAttr(testCtx, poleOID, "pole_location", catalog.GeomVal(geom.Pt(500, 500))))
		must(db.Close())
	}

	// Reopen: catalog, instances, spatial index all recover.
	db := mustOpen(t, Options{Path: path, PoolSize: 32, Name: "GEO"})
	defer db.Close()
	info, err := db.GetSchema(testCtx, "phone_net")
	if err != nil {
		t.Fatalf("catalog not recovered: %v", err)
	}
	if len(info.Classes) != 2 || info.Classes[1] != "Pole" {
		t.Fatalf("classes = %v", info.Classes)
	}
	if got := db.Count("phone_net", "Pole"); got != 50 {
		t.Fatalf("extension = %d", got)
	}
	in, err := db.GetValue(testCtx, poleOID)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := in.Geometry(); g.WKT() != "POINT (500 500)" {
		t.Fatalf("updated location lost: %v", g)
	}
	if v, _ := in.Get("pole_supplier"); v.Ref != supOID {
		t.Fatalf("reference lost: %v", v)
	}
	// The spatial index answers against recovered data.
	hits, err := db.Window("phone_net", "Pole", geom.R(499, 499, 501, 501))
	if err != nil || len(hits) != 1 || hits[0] != poleOID {
		t.Fatalf("recovered window query = %v, %v", hits, err)
	}
	// OID allocation continues past the recovered maximum.
	newOID, err := db.InsertMap(testCtx, "phone_net", "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if newOID <= poleOID {
		t.Fatalf("OID reuse after recovery: %d", newOID)
	}
	// Methods need re-registration (implementations are code, not data).
	if _, err := db.CallMethod(poleOID, "get_supplier_name"); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("method should need re-registration: %v", err)
	}
	if err := db.RegisterMethod("phone_net", "Pole", "get_supplier_name",
		func(db *DB, self Instance, args ...catalog.Value) (catalog.Value, error) {
			return catalog.TextVal("re-registered"), nil
		}); err != nil {
		t.Fatal(err)
	}
	if got, err := db.CallMethod(poleOID, "get_supplier_name"); err != nil || got.Text != "re-registered" {
		t.Fatalf("method after re-registration: %v, %v", got, err)
	}
	// Defining more classes after recovery re-persists the catalog.
	if err := db.DefineClass("phone_net", catalog.Class{Name: "Cable"}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAfterDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "geo2.db")
	db := mustOpen(t, Options{Path: path, PoolSize: 16})
	if err := db.DefineSchema("s"); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("s", catalog.Class{
		Name:  "P",
		Attrs: []catalog.Field{catalog.F("n", catalog.Scalar(catalog.KindInteger))},
	}); err != nil {
		t.Fatal(err)
	}
	var oids []catalog.OID
	for i := 0; i < 30; i++ {
		oid, err := db.Insert(testCtx, "s", "P", []catalog.Value{catalog.IntVal(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	for i := 0; i < 30; i += 2 {
		if err := db.Delete(testCtx, oids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, Options{Path: path, PoolSize: 16})
	defer db2.Close()
	if got := db2.Count("s", "P"); got != 15 {
		t.Fatalf("recovered extension = %d, want 15", got)
	}
	// Deleted OIDs stay gone; survivors read back correctly in order.
	if _, err := db2.GetValue(testCtx, oids[0]); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("deleted instance recovered: %v", err)
	}
	all, err := db2.Select("s", "P", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range all {
		v, _ := in.Get("n")
		if v.Int != int64(i*2+1) {
			t.Fatalf("survivor %d = %v", i, v)
		}
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-db")
	// A page-aligned file with a heap page holding a non-envelope record.
	fp, err := storage.OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(fp, 4, storage.PolicyLRU, nil)
	h := storage.NewHeapFile(pool)
	if _, err := h.Insert([]byte("garbage record")); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err == nil {
		t.Fatal("foreign file accepted")
	}
}

func TestStats(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "A", "B")
	insertPole(t, db, sup, 0, 0)
	st := db.Stats()
	if st.Schemas != 1 || st.Instances != 2 || st.Pages == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
