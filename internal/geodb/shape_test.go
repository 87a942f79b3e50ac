package geodb

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geom"
)

// shapeClasses are the classes the shape oracle reads: points with
// pictures, lines, polygons, no geometry at all, and two geometry
// attributes of which the first may be null.
var shapeClasses = []string{"Pole", "Duct", "Zone", "Supplier", "Survey"}

// buildShapeNet is buildPhoneNet plus Zone and Survey, populated with every
// case the shape read must get right.
func buildShapeNet(t *testing.T) *DB {
	t.Helper()
	db := buildPhoneNet(t)
	for _, cls := range []catalog.Class{
		{Name: "Zone", Attrs: []catalog.Field{
			catalog.F("zone_name", catalog.Scalar(catalog.KindText)),
			catalog.F("zone_area", catalog.Scalar(catalog.KindGeometry)),
		}},
		{Name: "Survey", Attrs: []catalog.Field{
			catalog.F("survey_site", catalog.Scalar(catalog.KindGeometry)),
			catalog.F("survey_note", catalog.Scalar(catalog.KindText)),
			catalog.F("survey_route", catalog.Scalar(catalog.KindGeometry)),
		}},
	} {
		if err := db.DefineClass("phone_net", cls); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(class string, m map[string]catalog.Value) {
		t.Helper()
		if _, err := db.InsertMap(testCtx, "phone_net", class, m); err != nil {
			t.Fatal(err)
		}
	}
	sup := insertSupplier(t, db, "ACME", "Campinas")
	insertSupplier(t, db, "Postes SA", "Recife")
	picture := make([]byte, 2048)
	for i := 0; i < 12; i++ {
		m := map[string]catalog.Value{
			"pole_type":        catalog.IntVal(int64(i % 3)),
			"pole_composition": catalog.TupleVal(catalog.TextVal("wood"), catalog.FloatVal(0.3), catalog.FloatVal(9.5)),
			"pole_supplier":    catalog.RefVal(sup),
			"pole_picture":     catalog.BitmapVal(picture),
			"pole_historic":    catalog.TextVal(fmt.Sprintf("pole %d", i)),
		}
		if i%5 != 4 { // every fifth pole has no location
			m["pole_location"] = catalog.GeomVal(geom.Pt(float64(i), float64(2*i)))
		}
		insert("Pole", m)
	}
	for i := 0; i < 3; i++ {
		f := float64(i)
		insert("Duct", map[string]catalog.Value{
			"duct_kind": catalog.TextVal("underground"),
			"duct_path": catalog.GeomVal(geom.LineString{geom.Pt(f, 0), geom.Pt(f+5, 5), geom.Pt(f+9, 1)}),
		})
	}
	insert("Zone", map[string]catalog.Value{
		"zone_name": catalog.TextVal("centro"),
		"zone_area": catalog.GeomVal(geom.Polygon{
			Outer: geom.Ring{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)},
			Holes: []geom.Ring{{geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(3, 3)}},
		}),
	})
	insert("Zone", map[string]catalog.Value{"zone_name": catalog.TextVal("unmapped")})
	route := catalog.GeomVal(geom.LineString{geom.Pt(1, 1), geom.Pt(2, 3)})
	insert("Survey", map[string]catalog.Value{"survey_route": route})
	insert("Survey", map[string]catalog.Value{"survey_site": catalog.GeomVal(geom.Pt(4, 4)), "survey_route": route})
	insert("Survey", map[string]catalog.Value{"survey_site": catalog.GeomVal(nil), "survey_route": route})
	insert("Survey", map[string]catalog.Value{"survey_note": catalog.TextVal("nothing located")})
	return db
}

// wantShapes projects whole instances onto what a map draws.
func wantShapes(instances []Instance) []Shape {
	out := []Shape{}
	for _, in := range instances {
		if sh, ok := in.Shape(); ok {
			out = append(out, sh)
		}
	}
	return out
}

func sameShapes(t *testing.T, what string, got, want []Shape) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shapes, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].OID != want[i].OID || !reflect.DeepEqual(got[i].Geom, want[i].Geom) {
			t.Fatalf("%s: shape %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestShapesMatchSelect is the shape read's oracle: Shapes, a whole-plane
// ShapesInWindow and the transaction view each return exactly the
// geometries Instance.Geometry gives over Select, in OID order.
func TestShapesMatchSelect(t *testing.T) {
	db := buildShapeNet(t)
	plane := geom.R(-1e6, -1e6, 1e6, 1e6)
	for _, class := range shapeClasses {
		all, err := db.Select("phone_net", class, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := wantShapes(all)
		got, err := db.Shapes("phone_net", class)
		if err != nil {
			t.Fatal(err)
		}
		sameShapes(t, class+" Shapes", got, want)
		win, err := db.ShapesInWindow("phone_net", class, plane)
		if err != nil {
			t.Fatal(err)
		}
		sameShapes(t, class+" ShapesInWindow", win, want)
		var viewed []Shape
		txn := db.Begin(testCtx)
		if err := txn.Geometries("phone_net", class, plane, func(oid catalog.OID, g geom.Geometry) {
			viewed = append(viewed, Shape{OID: oid, Geom: g})
		}); err != nil {
			t.Fatal(err)
		}
		txn.Abort()
		sort.Slice(viewed, func(i, j int) bool { return viewed[i].OID < viewed[j].OID })
		sameShapes(t, class+" Txn.Geometries", viewed, want)
	}
	if got, _ := db.Shapes("phone_net", "Survey"); len(got) != 2 {
		t.Fatalf("Survey shapes = %v: want the route of the null-site survey and the site of the located one", got)
	}
}

// TestSnapshotShapesReadRetainedVersions: shapes read through a snapshot
// see the state it pinned, as its Select does, while updates move and
// deletes remove instances after it began.
func TestSnapshotShapesReadRetainedVersions(t *testing.T) {
	db := buildShapeNet(t)
	snap := db.BeginSnapshot()
	defer snap.Close()
	before := map[string][]Instance{}
	for _, class := range shapeClasses {
		all, err := snap.Select("phone_net", class, nil)
		if err != nil {
			t.Fatal(err)
		}
		before[class] = all
	}
	poles := before["Pole"]
	if err := db.UpdateAttr(testCtx, poles[0].OID, "pole_location", catalog.GeomVal(geom.Pt(99, 99))); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAttr(testCtx, poles[1].OID, "pole_location", catalog.Null); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(testCtx, before["Duct"][0].OID); err != nil {
		t.Fatal(err)
	}
	for _, class := range shapeClasses {
		got, err := snap.shapes("phone_net", class)
		if err != nil {
			t.Fatal(err)
		}
		sameShapes(t, class+" at the snapshot", got, wantShapes(before[class]))
	}
	now, err := db.Shapes("phone_net", "Pole")
	if err != nil {
		t.Fatal(err)
	}
	if now[0].OID != poles[0].OID || now[0].Geom != geom.Geometry(geom.Pt(99, 99)) || now[1].OID == poles[1].OID {
		t.Fatalf("current shapes %v miss the updates", now[:2])
	}
}

// TestDeleteChurnReusesPages: a transaction stream that inserts one pole
// and deletes the oldest keeps the live set constant, so the file must not
// grow — the room each delete frees is where the next insert goes.
func TestDeleteChurnReusesPages(t *testing.T) {
	db := buildPhoneNet(t)
	sup := insertSupplier(t, db, "ACME", "Campinas")
	var live []catalog.OID
	for i := 0; i < 200; i++ {
		live = append(live, insertPole(t, db, sup, float64(i), 0))
	}
	start := db.Pool().NumPages()
	for i := 0; i < 600; i++ {
		txn := db.Begin(testCtx)
		values, err := db.ValuesFromMap("phone_net", "Pole", map[string]catalog.Value{
			"pole_type":     catalog.IntVal(1),
			"pole_supplier": catalog.RefVal(sup),
			"pole_location": catalog.GeomVal(geom.Pt(float64(i), 1)),
			"pole_historic": catalog.TextVal("installed 1995"),
			"pole_composition": catalog.TupleVal(
				catalog.TextVal("wood"), catalog.FloatVal(0.3), catalog.FloatVal(9.5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		oid, err := txn.Insert("phone_net", "Pole", values)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Delete(live[0]); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		live = append(live[1:], oid)
	}
	if end := db.Pool().NumPages(); end > start+1 {
		t.Fatalf("constant live set grew the file from %d to %d pages", start, end)
	}
	if n := db.Count("phone_net", "Pole"); n != 200 {
		t.Fatalf("live poles = %d, want 200", n)
	}
}
