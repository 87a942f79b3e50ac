package hardwired

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/uikit"
	"repro/internal/workload"
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

func testNet(t testing.TB) (*geodb.DB, *workload.PhoneNet) {
	t.Helper()
	db := mustOpen(t, geodb.Options{})
	net, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{Seed: 5, ZonesPerSide: 1, PolesPerZone: 8})
	if err != nil {
		t.Fatal(err)
	}
	return db, net
}

func TestGenericVariantMatchesDefaultShape(t *testing.T) {
	db, net := testNet(t)
	u := New(db, VariantGeneric)
	ctx := event.Context{User: "x"}
	info, _ := db.GetSchema(ctx, workload.SchemaName)
	win, err := u.SchemaWindow(info)
	if err != nil {
		t.Fatal(err)
	}
	if win.Prop("visible") != "true" || len(win.Find("classes").Items) != 4 {
		t.Fatalf("generic schema window: %+v", win.Find("classes"))
	}
	cinfo, _ := db.GetClass(ctx, workload.SchemaName, "Pole")
	shapes, _ := db.Shapes(workload.SchemaName, "Pole")
	cwin, err := u.ClassWindow(cinfo, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if len(cwin.Find("map").Shapes) != len(net.Poles) {
		t.Fatal("class window shapes")
	}
	if cwin.Find("class_widget") == nil {
		t.Fatal("generic class widget missing")
	}
	in, _ := db.GetValue(ctx, net.Poles[0])
	iwin, err := u.InstanceWindow(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(iwin.Find("attributes").Children) != 6 {
		t.Fatalf("generic instance panels = %d", len(iwin.Find("attributes").Children))
	}
}

func TestPoleManagerVariantMatchesFigure7(t *testing.T) {
	db, net := testNet(t)
	u := New(db, VariantPoleManager)
	ctx := event.Context{User: "juliano"}
	info, _ := db.GetSchema(ctx, workload.SchemaName)
	win, _ := u.SchemaWindow(info)
	if win.Prop("visible") != "false" {
		t.Fatal("pole-manager schema window must be hidden")
	}
	cinfo, _ := db.GetClass(ctx, workload.SchemaName, "Pole")
	shapes, _ := db.Shapes(workload.SchemaName, "Pole")
	cwin, _ := u.ClassWindow(cinfo, shapes)
	if cwin.Find("poleWidget") == nil || cwin.Find("poleWidget").Kind != uikit.KindSlider {
		t.Fatal("hand-coded slider missing")
	}
	in, _ := db.GetValue(ctx, net.Poles[0])
	iwin, err := u.InstanceWindow(in)
	if err != nil {
		t.Fatal(err)
	}
	attrs := iwin.Find("attributes")
	if len(attrs.Children) != 5 {
		t.Fatalf("pole-manager instance panels = %d, want 5", len(attrs.Children))
	}
	if iwin.Find("attr:pole_location") != nil {
		t.Fatal("location must be suppressed")
	}
	comp := iwin.Find("attr:pole_composition").Find("composed")
	if comp == nil || !strings.Contains(comp.Prop("value"), " ") {
		t.Fatalf("composed panel = %+v", comp)
	}
	sup := iwin.Find("attr:pole_supplier").Find("supplier")
	if sup == nil || !strings.HasPrefix(sup.Prop("value"), "Supplier-") {
		t.Fatalf("supplier panel = %+v", sup)
	}
	// Non-Pole classes fall back to the generic code path.
	dinfo, _ := db.GetClass(ctx, workload.SchemaName, "Duct")
	dshapes, _ := db.Shapes(workload.SchemaName, "Duct")
	dwin, _ := u.ClassWindow(dinfo, dshapes)
	if dwin.Find("class_widget") == nil {
		t.Fatal("non-Pole class should use the generic window")
	}
}

func TestUnknownVariant(t *testing.T) {
	db, _ := testNet(t)
	u := New(db, Variant(99))
	ctx := event.Context{}
	info, _ := db.GetSchema(ctx, workload.SchemaName)
	if _, err := u.SchemaWindow(info); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestCostModels(t *testing.T) {
	hw := HardwiredCost(4000)
	dir := DirectiveCost(len(workload.Figure6Source))
	if !hw.RebuildRequired || dir.RebuildRequired {
		t.Fatal("rebuild flags")
	}
	if hw.ArtifactsTouched <= dir.ArtifactsTouched {
		t.Fatal("hardwired must touch more artifacts")
	}
	if hw.DispatchEdits == 0 || dir.DispatchEdits != 0 {
		t.Fatal("dispatch edits")
	}
}
