package ui

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/builder"
	"repro/internal/catalog"
	"repro/internal/custlang"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/uikit"
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

const figure6 = `
For user juliano application pole_manager
schema phone_net display as Null
class Pole display
  control as poleWidget
  presentation as pointFormat
  instances
    display attribute pole_composition as composed_text
      from pole.material pole.diameter pole.height
      using composed_text.notify()
    display attribute pole_supplier as text
      from get_supplier_name(pole_supplier)
    display attribute pole_location as Null
`

// world wires the full Section 4 stack: database, engine, library, builder,
// Figure 6 rules.
type world struct {
	db      *geodb.DB
	engine  *active.Engine
	lib     *uikit.Library
	builder *builder.Builder
	backend *DirectBackend
	poles   []catalog.OID
}

func newWorld(t testing.TB, withRules bool) *world {
	t.Helper()
	return newWorldOn(t, withRules, geodb.Options{Name: "GEO"})
}

// newWorldOn is newWorld on a database opened with opts.
func newWorldOn(t testing.TB, withRules bool, opts geodb.Options) *world {
	t.Helper()
	db := mustOpen(t, opts)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineSchema("phone_net"))
	must(db.DefineClass("phone_net", catalog.Class{
		Name:  "Supplier",
		Attrs: []catalog.Field{catalog.F("name", catalog.Scalar(catalog.KindText))},
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
		Name:  "Duct",
		Attrs: []catalog.Field{catalog.F("duct_path", catalog.Scalar(catalog.KindGeometry))},
	}))
	must(db.RegisterMethod("phone_net", "Pole", "get_supplier_name",
		func(db *geodb.DB, self geodb.Instance, args ...catalog.Value) (catalog.Value, error) {
			ref, _ := self.Get("pole_supplier")
			if ref.IsNull() || ref.Ref == catalog.NilOID {
				return catalog.TextVal(""), nil
			}
			sup, err := db.GetValue(event.Context{}, ref.Ref)
			if err != nil {
				return catalog.Value{}, err
			}
			name, _ := sup.Get("name")
			return name, nil
		}))

	ctx := event.Context{Application: "setup"}
	sup, err := db.InsertMap(ctx, "phone_net", "Supplier", map[string]catalog.Value{
		"name": catalog.TextVal("ACME Postes"),
	})
	must(err)
	w := &world{db: db}
	for i := 0; i < 6; i++ {
		oid, err := db.InsertMap(ctx, "phone_net", "Pole", map[string]catalog.Value{
			"pole_type": catalog.IntVal(int64(i % 2)),
			"pole_composition": catalog.TupleVal(
				catalog.TextVal("wood"), catalog.FloatVal(0.3), catalog.FloatVal(9.5)),
			"pole_supplier": catalog.RefVal(sup),
			"pole_location": catalog.GeomVal(geom.Pt(float64(i*10), float64(i*5))),
			"pole_historic": catalog.TextVal("installed"),
		})
		must(err)
		w.poles = append(w.poles, oid)
	}

	lib := uikit.Kernel()
	must(lib.Specialize("poleWidget", "button", func(x *uikit.Widget) {
		x.Kind = uikit.KindSlider
	}))
	must(lib.Specialize("composed_text", "text", func(x *uikit.Widget) {
		x.SetProp("composed", "true")
	}))

	engine := active.NewEngine()
	if withRules {
		analyzer := &custlang.Analyzer{Cat: db.Catalog(), Lib: lib}
		if _, err := analyzer.Install(engine, figure6); err != nil {
			t.Fatal(err)
		}
	}
	w.engine = engine
	w.lib = lib
	w.backend = NewDirectBackend(db, engine)
	w.builder = builder.New(lib, w.backend)
	return w
}

func julianoCtx() event.Context {
	return event.Context{User: "juliano", Application: "pole_manager"}
}

func mariaCtx() event.Context {
	return event.Context{User: "maria", Application: "pole_manager"}
}

func TestDefaultBrowsingSessionFigure4(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	if _, err := s.OpenSchema("phone_net"); err != ErrNotConnected {
		t.Fatalf("pre-connect open: %v", err)
	}
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	// Step 1: schema window with the class list.
	schemaWin, err := s.OpenSchema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if schemaWin.Prop("visible") != "true" {
		t.Fatal("default schema window must be visible")
	}
	classes := schemaWin.Find("classes")
	if len(classes.Items) != 3 {
		t.Fatalf("class list = %v", classes.Items)
	}
	// Step 2: the user selects Pole in the list (interface event →
	// database event → class window).
	if err := s.Interact("schema:phone_net", "classes", "select", "Pole"); err != nil {
		t.Fatal(err)
	}
	classWin, err := s.Window("classset:Pole")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(classWin.Find("map").Shapes); got != 6 {
		t.Fatalf("map shapes = %d", got)
	}
	// Default class widget, default point format.
	if classWin.Find("class_widget") == nil {
		t.Fatal("default control widget missing")
	}
	// Step 3: the user picks a pole on the map.
	if err := s.Interact("classset:Pole", "map", "pick", uint64(w.poles[2])); err != nil {
		t.Fatal(err)
	}
	instWin, err := s.Window(fmt.Sprintf("instance:Pole:%d", w.poles[2]))
	if err != nil {
		t.Fatalf("instance window missing: %v (windows %v)", err, s.Windows())
	}
	// Default presentation shows every attribute.
	if got := len(instWin.Find("attributes").Children); got != 6 {
		t.Fatalf("attribute panels = %d", got)
	}
	if len(s.Windows()) != 3 {
		t.Fatalf("windows = %v", s.Windows())
	}
}

func TestCustomizedSessionFigure7(t *testing.T) {
	w := newWorld(t, true)
	s := NewSession(w.backend, w.builder, julianoCtx())
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	// Connecting and opening the schema fires R1: the schema window is
	// built but hidden, and the Pole class window opens automatically.
	schemaWin, err := s.OpenSchema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if schemaWin.Prop("visible") != "false" {
		t.Fatal("R1 must hide the schema window")
	}
	classWin, err := s.Window("classset:Pole")
	if err != nil {
		t.Fatalf("R1 must auto-open the Pole class window: %v", err)
	}
	// R2: poleWidget control, pointFormat presentation (Figure 7 left).
	if classWin.Find("poleWidget") == nil {
		t.Fatal("poleWidget missing")
	}
	for _, sh := range classWin.Find("map").Shapes {
		if sh.Format != "pointFormat" {
			t.Fatalf("format = %q", sh.Format)
		}
	}
	// Picking a pole triggers the instance rule (Figure 7 right).
	if err := s.Interact("classset:Pole", "map", "pick", uint64(w.poles[0])); err != nil {
		t.Fatal(err)
	}
	instWin, err := s.Window(fmt.Sprintf("instance:Pole:%d", w.poles[0]))
	if err != nil {
		t.Fatal(err)
	}
	attrs := instWin.Find("attributes")
	if len(attrs.Children) != 5 {
		t.Fatalf("panels = %d, want 5 (pole_location suppressed)", len(attrs.Children))
	}
	comp := instWin.Find("attr:pole_composition")
	ct := comp.FindKind(uikit.KindText)[0]
	if ct.Prop("value") != "wood 0.3 9.5" {
		t.Fatalf("composed value = %q", ct.Prop("value"))
	}
	supPanel := instWin.Find("attr:pole_supplier")
	if got := supPanel.FindKind(uikit.KindText)[0].Prop("value"); got != "ACME Postes" {
		t.Fatalf("supplier = %q", got)
	}
	// The screen shows the hidden schema window only as a summary.
	screen := s.Screen()
	if !strings.Contains(screen, "(hidden) schema:phone_net") {
		t.Fatalf("screen:\n%s", screen)
	}
}

func TestTransparencyAcrossContexts(t *testing.T) {
	// The same dispatcher code serves customized and generic users — only
	// the rule base differs (§3.5's transparency claim).
	w := newWorld(t, true)
	for _, tc := range []struct {
		ctx     event.Context
		visible bool
		windows int
	}{
		{julianoCtx(), false, 2}, // schema hidden + auto-opened Pole
		{mariaCtx(), true, 1},    // generic schema window only
	} {
		s := NewSession(w.backend, w.builder, tc.ctx)
		if err := s.Connect(); err != nil {
			t.Fatal(err)
		}
		win, err := s.OpenSchema("phone_net")
		if err != nil {
			t.Fatal(err)
		}
		if (win.Prop("visible") == "true") != tc.visible {
			t.Fatalf("ctx %s: visible = %v", tc.ctx, win.Prop("visible"))
		}
		if len(s.Windows()) != tc.windows {
			t.Fatalf("ctx %s: windows = %v", tc.ctx, s.Windows())
		}
	}
}

func TestAnalysisMode(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	win, err := s.Analyze("phone_net", "Pole", []geodb.Filter{
		{Attr: "pole_type", Op: "eq", Value: catalog.IntVal(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(win.Find("map").Shapes); got != 3 {
		t.Fatalf("filtered shapes = %d, want 3", got)
	}
	if !strings.Contains(win.Prop("title"), "3 matches") {
		t.Fatalf("title = %q", win.Prop("title"))
	}
	// Spatial filter.
	win2, err := s.Analyze("phone_net", "Pole", []geodb.Filter{
		{Attr: "pole_location", Op: "intersects", Value: catalog.GeomVal(geom.R(0, 0, 22, 22))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(win2.Find("map").Shapes); got != 3 { // poles at 0,10,20
		t.Fatalf("spatial filter shapes = %d", got)
	}
}

func TestExplainMode(t *testing.T) {
	w := newWorld(t, true)
	s := NewSession(w.backend, w.builder, julianoCtx())
	s.Connect()
	s.OpenSchema("phone_net")
	lines := strings.Join(s.Explain(), "\n")
	for _, want := range []string{
		"Get_Schema(phone_net): customization from rule",
		"Get_Class(Pole): customization from rule",
		"window \"schema:phone_net\" added",
	} {
		if !strings.Contains(lines, want) {
			t.Errorf("explain missing %q:\n%s", want, lines)
		}
	}
}

func TestWindowHierarchyClose(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.OpenSchema("phone_net")
	s.Interact("schema:phone_net", "classes", "select", "Pole")
	s.Interact("classset:Pole", "map", "pick", uint64(w.poles[0]))
	if len(s.Windows()) != 3 {
		t.Fatalf("windows = %v", s.Windows())
	}
	// Closing the class window cascades to its instance window.
	if err := s.CloseWindow("classset:Pole"); err != nil {
		t.Fatal(err)
	}
	if len(s.Windows()) != 1 || s.Windows()[0] != "schema:phone_net" {
		t.Fatalf("after close: %v", s.Windows())
	}
	if err := s.CloseWindow("classset:Pole"); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("double close: %v", err)
	}
	// Close via the close button callback.
	s.Interact("schema:phone_net", "classes", "select", "Duct")
	if err := s.Interact("classset:Duct", "close", "click", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Window("classset:Duct"); !errors.Is(err, ErrNoWindow) {
		t.Fatal("close button did not close the window")
	}
}

func TestInteractErrors(t *testing.T) {
	w := newWorld(t, false)
	s := NewSession(w.backend, w.builder, mariaCtx())
	s.Connect()
	s.OpenSchema("phone_net")
	if err := s.Interact("nope", "classes", "select", "Pole"); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("missing window: %v", err)
	}
	if err := s.Interact("schema:phone_net", "nope", "select", "Pole"); !errors.Is(err, ErrNoWindow) {
		t.Fatalf("missing widget: %v", err)
	}
	if err := s.Interact("schema:phone_net", "classes", "select", 42); err == nil {
		t.Fatal("bad payload accepted")
	}
	if err := s.Interact("schema:phone_net", "classes", "select", "Ghost"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestCustomCallbackRegistration(t *testing.T) {
	w := newWorld(t, true)
	s := NewSession(w.backend, w.builder, julianoCtx())
	var notified []string
	s.Registry().Register("composed_text.notify", func(x *uikit.Widget, payload any) error {
		notified = append(notified, x.Prop("value"))
		return nil
	})
	s.Connect()
	s.OpenSchema("phone_net")
	s.Interact("classset:Pole", "map", "pick", uint64(w.poles[0]))
	// The composed_text widget in the instance window is bound to
	// composed_text.notify by the customization's using-clause.
	instName := fmt.Sprintf("instance:Pole:%d", w.poles[0])
	if err := s.Interact(instName, "attr:pole_composition", "notify", nil); err == nil {
		// The panel itself has no binding; trigger the inner widget.
		in, _ := s.Window(instName)
		ct := in.Find("attr:pole_composition").FindKind(uikit.KindText)[0]
		if err := s.Registry().Trigger(ct, "notify", nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(notified) != 1 || notified[0] != "wood 0.3 9.5" {
		t.Fatalf("notified = %v", notified)
	}
}

// TestConcurrentSessions runs eight sessions, four per context, over one
// backend. After every round each session's screen must equal the screen
// its context renders sequentially: a session that lost its customization
// to a sibling of the same context would draw a generic window instead.
func TestConcurrentSessions(t *testing.T) {
	w := newWorld(t, true)
	contexts := []event.Context{julianoCtx(), mariaCtx()}
	// round opens the schema, Duct and Pole windows (Figure 6 customizes
	// Pole for juliano) and renders every open window.
	round := func(s *Session) (string, error) {
		if _, err := s.OpenSchema("phone_net"); err != nil {
			return "", err
		}
		for _, class := range []string{"Duct", "Pole"} {
			if _, err := s.OpenClass("phone_net", class); err != nil {
				return "", err
			}
		}
		return s.Screen(), nil
	}
	want := make([]string, len(contexts))
	for i, ctx := range contexts {
		s := NewSession(w.backend, w.builder, ctx)
		if err := s.Connect(); err != nil {
			t.Fatal(err)
		}
		screen, err := round(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = screen
	}

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			s := NewSession(w.backend, w.builder, contexts[i%2])
			if err := s.Connect(); err != nil {
				done <- err
				return
			}
			for j := 0; j < 20; j++ {
				if screen, err := round(s); err != nil || screen != want[i%2] {
					done <- fmt.Errorf("session %d round %d: %v; screen\n%s\nwant\n%s", i, j, err, screen, want[i%2])
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
