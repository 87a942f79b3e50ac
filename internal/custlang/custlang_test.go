package custlang

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/spec"
	"repro/internal/storage"
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

// dispatchAndTake runs one event through the engine and returns its
// selection.
func dispatchAndTake(t *testing.T, en *active.Engine, e event.Event) (spec.Customization, bool) {
	t.Helper()
	c, err := en.Select(e)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		return spec.Customization{}, false
	}
	return *c, true
}

// figure6 is the customization script of the paper's Figure 6, written in
// this package's concrete syntax. The paper's shorthand source paths
// (pole.material) are kept verbatim; the analyzer resolves them to
// pole_composition.pole_material.
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

func testAnalyzer(t testing.TB) (*Analyzer, *geodb.DB) {
	t.Helper()
	db := mustOpen(t, geodb.Options{})
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
	lib := uikit.Kernel()
	must(lib.Specialize("poleWidget", "button", func(w *uikit.Widget) { w.Kind = uikit.KindSlider }))
	must(lib.Specialize("composed_text", "text", nil))
	return &Analyzer{Cat: db.Catalog(), Lib: lib}, db
}

func TestParseFigure6(t *testing.T) {
	d, err := ParseOne(figure6)
	if err != nil {
		t.Fatal(err)
	}
	// Line (1): the context.
	if d.Context.User != "juliano" || d.Context.Application != "pole_manager" || d.Context.Category != "" {
		t.Fatalf("context = %+v", d.Context)
	}
	// Line (2): schema phone_net display as Null.
	if d.Schema == nil || d.Schema.Name != "phone_net" || d.Schema.Display != spec.DisplayNull {
		t.Fatalf("schema clause = %+v", d.Schema)
	}
	// Lines (3)-(5): class Pole with poleWidget / pointFormat.
	if len(d.Classes) != 1 {
		t.Fatalf("classes = %d", len(d.Classes))
	}
	cc := d.Classes[0]
	if cc.Name != "Pole" || cc.Control != "poleWidget" || cc.Presentation != "pointFormat" {
		t.Fatalf("class clause = %+v", cc)
	}
	// Lines (6)-(12): three attribute clauses.
	if len(cc.Attrs) != 3 {
		t.Fatalf("attr clauses = %d", len(cc.Attrs))
	}
	comp := cc.Attrs[0]
	if comp.Attr != "pole_composition" || comp.Widget != "composed_text" {
		t.Fatalf("composition clause = %+v", comp)
	}
	if len(comp.From) != 3 || comp.From[0].Attr != "pole.material" {
		t.Fatalf("from = %+v", comp.From)
	}
	if comp.Using != "composed_text.notify" {
		t.Fatalf("using = %q", comp.Using)
	}
	supplier := cc.Attrs[1]
	if supplier.Widget != "text" || len(supplier.From) != 1 ||
		supplier.From[0].Method != "get_supplier_name" ||
		len(supplier.From[0].Args) != 1 || supplier.From[0].Args[0] != "pole_supplier" {
		t.Fatalf("supplier clause = %+v", supplier)
	}
	if !cc.Attrs[2].Null || cc.Attrs[2].Attr != "pole_location" {
		t.Fatalf("location clause = %+v", cc.Attrs[2])
	}
}

func TestParseAllFigure3Constructs(t *testing.T) {
	// Exercise every construct of the grammar figure: all context parts,
	// every schema display mode, multiple classes, comments.
	src := `
# full-construct exercise
For user u category planners application app
schema s display as hierarchy
class A display
  control as button
class B display
  presentation as lineFormat
  instances
    display attribute x as text
    display attribute y as Null

For category ops
schema s display as user-defined fancy
class A display
  control as button

For application app2
schema s2 display as default
class C display
  presentation as regionFormat
`
	ds, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("directives = %d", len(ds))
	}
	if ds[0].Context.Category != "planners" || len(ds[0].Classes) != 2 {
		t.Fatalf("d0 = %+v", ds[0])
	}
	if ds[1].Schema.Display != spec.DisplayUserDefined || ds[1].Schema.Widget != "fancy" {
		t.Fatalf("d1 schema = %+v", ds[1].Schema)
	}
	if ds[2].Schema.Display != spec.DisplayDefault {
		t.Fatalf("d2 schema = %+v", ds[2].Schema)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{figure6, `
For category planners
schema s display as user-defined fancy
class A display
  control as w
  instances
    display attribute a as t
      from x y.z m(p, q)
      using cb
`} {
		d1, err := ParseOne(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := d1.String()
		d2, err := ParseOne(printed)
		if err != nil {
			t.Fatalf("re-parse of:\n%s\nfailed: %v", printed, err)
		}
		if d1.String() != d2.String() {
			t.Fatalf("round trip drift:\n%s\nvs\n%s", d1.String(), d2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`schema s display as default`, // missing For
		`For`,                         // empty context
		`For user`,                    // missing user name
		`For user u`,                  // no clauses
		`For user u user v schema s display as default`,                             // duplicate user
		`For user u schema s display as spinny`,                                     // bad mode
		`For user u schema s display as user-defined`,                               // missing widget
		`For user u class C`,                                                        // missing display
		`For user u class C display control poleWidget`,                             // missing as
		`For user u class C display instances`,                                      // empty instances
		`For user u class C display instances display attribute a`,                  // missing as
		`For user u class C display instances display attribute a as w from`,        // empty from
		`For user u class C display instances display attribute a as w using cb(x)`, // callback args
		`For user u class C display instances display attribute a as w from m(`,     // unclosed call
		`For user u schema s display as default ???`,                                // bad char
		`For user u class C display control as x control as y`,                      // duplicate control
	}
	for i, src := range cases {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("case %d: %v for %q", i, err, src)
		}
	}
}

func TestAnalyzeFigure6NormalizesShorthand(t *testing.T) {
	a, _ := testAnalyzer(t)
	d, err := ParseOne(figure6)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := a.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	from := norm.Classes[0].Attrs[0].From
	want := []string{
		"pole_composition.pole_material",
		"pole_composition.pole_diameter",
		"pole_composition.pole_height",
	}
	for i, w := range want {
		if from[i].Attr != w {
			t.Errorf("from[%d] = %q, want %q", i, from[i].Attr, w)
		}
	}
	// The original directive is untouched.
	if d.Classes[0].Attrs[0].From[0].Attr != "pole.material" {
		t.Fatal("Analyze mutated its input")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	a, _ := testAnalyzer(t)
	cases := []struct {
		src  string
		want string
	}{
		{`For user u schema nope display as default`, "unknown schema"},
		{`For user u schema phone_net display as user-defined ghost`, "not in the interface objects library"},
		{`For user u schema phone_net display as default class Ghost display control as button`, "unknown class"},
		{`For user u schema phone_net display as default class Pole display control as ghost`, "control widget"},
		{`For user u schema phone_net display as default class Pole display presentation as ghostFormat`, "unknown presentation format"},
		{`For user u schema phone_net display as default class Pole display instances display attribute ghost as text`, "unknown attribute"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as ghost`, "not in the library"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as text from nope`, "cannot resolve source path"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as text from pole_type.x`, "not a tuple"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as text from pole_composition.ghost`, "no field"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as text from ghost_method(pole_type)`, "not declared"},
		{`For user u schema phone_net display as default class Pole display control as button class Pole display control as button`, "duplicate class clause"},
		{`For user u schema phone_net display as default class Pole display instances display attribute pole_type as text display attribute pole_type as Null`, "duplicate display attribute"},
		{`For user u class Pole display control as button`, "no schema clause and no default schema"},
	}
	for i, c := range cases {
		d, err := ParseOne(c.src)
		if err != nil {
			t.Fatalf("case %d failed to parse: %v", i, err)
		}
		_, err = a.Analyze(d)
		if !errors.Is(err, ErrSemantic) {
			t.Errorf("case %d: err = %v", i, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
}

func TestAnalyzeCollectsMultipleErrors(t *testing.T) {
	a, _ := testAnalyzer(t)
	d, _ := ParseOne(`For user u schema phone_net display as default
class Pole display control as ghost1 presentation as ghostFmt`)
	_, err := a.Analyze(d)
	if err == nil || !strings.Contains(err.Error(), "ghost1") || !strings.Contains(err.Error(), "ghostFmt") {
		t.Fatalf("joined errors = %v", err)
	}
}

func TestDefaultSchemaFallback(t *testing.T) {
	a, _ := testAnalyzer(t)
	a.DefaultSchema = "phone_net"
	d, _ := ParseOne(`For user u class Pole display control as poleWidget`)
	if _, err := a.Analyze(d); err != nil {
		t.Fatal(err)
	}
}

func TestCompileFigure6(t *testing.T) {
	a, _ := testAnalyzer(t)
	compiled, err := a.CompileSource(figure6)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != 1 {
		t.Fatalf("units = %d", len(compiled))
	}
	rules := compiled[0].Rules
	// The paper: "This customization is used in the generation of several
	// rules" — here exactly three: schema (R1), class (R2), instance.
	if len(rules) != 3 {
		t.Fatalf("rules = %v", compiled[0].RuleNames())
	}
	r1, r2, r3 := rules[0], rules[1], rules[2]
	if r1.On != event.GetSchema || r1.Schema != "phone_net" {
		t.Fatalf("R1 = %+v", r1)
	}
	if r1.Context.User != "juliano" || r1.Context.Application != "pole_manager" {
		t.Fatalf("R1 context = %v", r1.Context)
	}
	if r2.On != event.GetClass || r2.Class != "Pole" {
		t.Fatalf("R2 = %+v", r2)
	}
	if r3.On != event.GetValue || r3.Class != "Pole" {
		t.Fatalf("R3 = %+v", r3)
	}
	// Actions produce the expected customizations.
	c1, err := r1.Customize(event.Event{})
	if err != nil || c1.Level != spec.LevelSchema || c1.Schema.Display != spec.DisplayNull {
		t.Fatalf("R1 action = %+v, %v", c1, err)
	}
	if len(c1.Schema.Classes) != 1 || c1.Schema.Classes[0] != "Pole" {
		t.Fatalf("R1 classes = %v (Null schema must hand the builder its class list)", c1.Schema.Classes)
	}
	c2, _ := r2.Customize(event.Event{})
	if c2.Class.Control != "poleWidget" || c2.Class.Presentation != "pointFormat" {
		t.Fatalf("R2 action = %+v", c2)
	}
	c3, _ := r3.Customize(event.Event{})
	if len(c3.Instance.Attrs) != 3 {
		t.Fatalf("R3 attrs = %+v", c3.Instance.Attrs)
	}
	if c3.Instance.Attrs[0].From[0].Attr != "pole_composition.pole_material" {
		t.Fatalf("R3 normalized from = %+v", c3.Instance.Attrs[0].From)
	}
	if !c3.Instance.Attrs[2].Null {
		t.Fatal("pole_location must compile to Null")
	}
}

func TestCompileSkipsEmptyLevels(t *testing.T) {
	a, _ := testAnalyzer(t)
	// Class clause without control/presentation/instances contributes no
	// class rule; schema-only directives compile to one rule.
	compiled, err := a.CompileSource(`For user u schema phone_net display as hierarchy class Pole display instances display attribute pole_location as Null`)
	if err != nil {
		t.Fatal(err)
	}
	rules := compiled[0].Rules
	if len(rules) != 2 {
		t.Fatalf("rules = %v", compiled[0].RuleNames())
	}
}

func TestInstallIntoEngine(t *testing.T) {
	a, _ := testAnalyzer(t)
	engine := active.NewEngine()
	units, err := a.Install(engine, figure6)
	if err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 3 {
		t.Fatalf("engine rules = %d", engine.RuleCount())
	}
	_ = units
	// End-to-end: the right customization surfaces for the right context.
	ctx := event.Context{User: "juliano", Application: "pole_manager"}
	e := event.Event{Kind: event.GetClass, Schema: "phone_net", Class: "Pole", Ctx: ctx}
	c, ok := dispatchAndTake(t, engine, e)
	if !ok || c.Class.Control != "poleWidget" {
		t.Fatalf("customization = %+v, %v", c, ok)
	}
	// Wrong context: nothing fires.
	e2 := e
	e2.Ctx = event.Context{User: "maria", Application: "pole_manager"}
	if _, ok := dispatchAndTake(t, engine, e2); ok {
		t.Fatal("rule fired for wrong user")
	}
}

func TestInstallRollsBackOnError(t *testing.T) {
	a, _ := testAnalyzer(t)
	engine := active.NewEngine()
	if _, err := a.Install(engine, figure6); err != nil {
		t.Fatal(err)
	}
	// Installing the same source again collides on rule names and must
	// leave the engine exactly as before.
	before := engine.RuleCount()
	if _, err := a.Install(engine, figure6); err == nil {
		t.Fatal("duplicate install should fail")
	}
	if engine.RuleCount() != before {
		t.Fatalf("rollback failed: %d rules, want %d", engine.RuleCount(), before)
	}
}

func TestStoreAndLoadDirectives(t *testing.T) {
	a, db := testAnalyzer(t)
	if err := a.SaveDirectives(db, "pole_manager", figure6); err != nil {
		t.Fatal(err)
	}
	// Invalid sources are refused.
	if err := a.SaveDirectives(db, "bad", `For user u schema ghost display as default`); err == nil {
		t.Fatal("invalid directive stored")
	}
	stored, err := LoadDirectives(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || !strings.Contains(stored["pole_manager"], "poleWidget") {
		t.Fatalf("stored = %v", stored)
	}
	// Replacing under the same name does not duplicate.
	if err := a.SaveDirectives(db, "pole_manager", figure6); err != nil {
		t.Fatal(err)
	}
	stored, _ = LoadDirectives(db)
	if len(stored) != 1 {
		t.Fatalf("after resave: %d", len(stored))
	}
	// InstallStored compiles everything onto a fresh engine.
	engine := active.NewEngine()
	n, err := a.InstallStored(db, engine)
	if err != nil || n != 3 || engine.RuleCount() != 3 {
		t.Fatalf("InstallStored = %d, %v (engine %d)", n, err, engine.RuleCount())
	}
}

// TestRefusedResaveKeepsStoredDirectives: a valid source the database
// refuses, here one larger than a page, leaves the stored version in place.
func TestRefusedResaveKeepsStoredDirectives(t *testing.T) {
	a, db := testAnalyzer(t)
	if err := a.SaveDirectives(db, "pole_manager", figure6); err != nil {
		t.Fatal(err)
	}
	var big strings.Builder
	for i := 0; big.Len() <= storage.MaxRecordSize; i++ {
		big.WriteString(strings.ReplaceAll(figure6, "juliano", fmt.Sprintf("user%d", i)))
	}
	if _, err := a.CompileSource(big.String()); err != nil {
		t.Fatalf("the oversize source must be valid: %v", err)
	}
	if err := a.SaveDirectives(db, "pole_manager", big.String()); !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("oversize re-save: %v", err)
	}
	stored, err := LoadDirectives(db)
	if err != nil || len(stored) != 1 || stored["pole_manager"] != figure6 {
		t.Fatalf("after the refused re-save: %v, %v", stored, err)
	}
}

func TestLoadDirectivesEmptyDB(t *testing.T) {
	_, db := testAnalyzer(t)
	stored, err := LoadDirectives(db)
	if err != nil || len(stored) != 0 {
		t.Fatalf("empty load = %v, %v", stored, err)
	}
}
