// Figure-reproduction tests: each asserts the behavioral content of one of
// the paper's figures through the public API, mirroring the F1–F7 entries of
// EXPERIMENTS.md. The Examples in internal/experiments check the printed
// figures byte for byte.
package gisui_test

import (
	"strings"
	"testing"

	gisui "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/uikit"
	"repro/internal/workload"
)

func TestFigure1EventFlow(t *testing.T) {
	f := experiments.MustFixture(4, 1, true)
	defer f.Close()
	rec := obs.NewSpanRecorder(64)
	f.Sys.Engine.Tracer().AttachSink(rec)
	s := f.Sys.NewSession(experiments.JulianoCtx)
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		t.Fatal(err)
	}
	// The Figure 1 loop: a user event became DB events, the active
	// mechanism selected Figure 6's rules, the builder produced windows.
	selected := map[string]string{}
	for _, sp := range rec.Spans() {
		if sp.Name != "active.dispatch" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		selected[attrs["event"]] = attrs["selected"]
	}
	for ev, rule := range map[string]string{
		"Get_Schema": "cust0[u=juliano,a=pole_manager]schema:phone_net",
		"Get_Class":  "cust0[u=juliano,a=pole_manager]class:Pole",
	} {
		if selected[ev] != rule {
			t.Errorf("%s dispatch selected %q, want %q (spans: %+v)", ev, selected[ev], rule, rec.Spans())
		}
	}
	if len(s.Windows()) != 2 {
		t.Fatalf("windows = %v", s.Windows())
	}
}

func TestFigure2Kernel(t *testing.T) {
	lib := gisui.Kernel()
	// Exactly the eight kernel classes of Figure 2.
	want := []string{"button", "drawing_area", "list", "menu", "menu_item", "panel", "text", "window"}
	got := lib.Names()
	if len(got) != len(want) {
		t.Fatalf("kernel = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel = %v, want %v", got, want)
		}
	}
	// The recursive Panel relationship: a panel may contain panels.
	outer := uikit.New(uikit.KindPanel, "outer").Add(
		uikit.New(uikit.KindPanel, "inner").Add(uikit.New(uikit.KindButton, "b")))
	if err := outer.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4DefaultWindows(t *testing.T) {
	f := experiments.MustFixture(4, 1, false)
	defer f.Close()
	s := f.Sys.NewSession(experiments.MariaCtx)
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		t.Fatal(err)
	}
	if err := s.Interact("schema:"+workload.SchemaName, "classes", "select", "Pole"); err != nil {
		t.Fatal(err)
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		t.Fatal(err)
	}
	screen := s.Screen()
	// The three windows of Figure 4, all visible, with their signature
	// content: class list, map with poles as points, attribute panels.
	for _, want := range []string{
		`window schema:phone_net`,
		`window classset:Pole`,
		`window instance:Pole:`,
		`- Pole`,
		`[pointFormat]`,
		`panel attr:pole_composition`,
	} {
		if !strings.Contains(screen, want) {
			t.Errorf("Figure 4 screen missing %q", want)
		}
	}
	if strings.Contains(screen, "(hidden)") {
		t.Error("default windows must all be visible")
	}
}

func TestFigure6Compiles(t *testing.T) {
	f := experiments.MustFixture(1, 1, false)
	defer f.Close()
	units, err := f.Sys.Analyzer().CompileSource(workload.Figure6Source)
	if err != nil {
		t.Fatal(err)
	}
	rules := units[0].Rules
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	// R1 semantics per §4: build the schema window with NULL and trigger
	// Get_Class(Pole).
	c1, err := rules[0].Customize(experiments.JulianoEvent())
	if err != nil || c1.Schema.Display != spec.DisplayNull {
		t.Fatalf("R1 = %+v, %v", c1, err)
	}
	if len(c1.Schema.Classes) != 1 || c1.Schema.Classes[0] != "Pole" {
		t.Fatalf("R1 classes = %v", c1.Schema.Classes)
	}
	// R2 semantics: Build_Window(Class set, Pole, Pole_Widget, pointFormat).
	c2, _ := rules[1].Customize(experiments.JulianoEvent())
	if c2.Class.Control != "poleWidget" || c2.Class.Presentation != "pointFormat" {
		t.Fatalf("R2 = %+v", c2)
	}
}

func TestFigure7CustomizedWindows(t *testing.T) {
	f := experiments.MustFixture(4, 1, true)
	defer f.Close()
	s := f.Sys.NewSession(experiments.JulianoCtx)
	if err := s.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		t.Fatal(err)
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		t.Fatal(err)
	}
	screen := s.Screen()
	for _, want := range []string{
		`(hidden) schema:phone_net`, // R1: schema window built but not shown
		`slider poleWidget`,         // R2: custom control widget
		`[pointFormat]`,             // R2: presentation format
		`composed="true"`,           // instance rule: composed_text
		`on[notify->composed_text.notify]`,
	} {
		if !strings.Contains(screen, want) {
			t.Errorf("Figure 7 screen missing %q in:\n%s", want, screen)
		}
	}
	if strings.Contains(screen, "attr:pole_location") {
		t.Error("pole_location must be suppressed (display as Null)")
	}
}

func TestTransparency(t *testing.T) {
	// §3.5: "All the modules in the interface have exactly the same
	// behavior, with or without customization" — the same session code
	// serves both users; only the rule base differs.
	f := experiments.MustFixture(4, 1, true)
	defer f.Close()
	for _, ctx := range []gisui.Ctx{experiments.JulianoCtx, experiments.MariaCtx} {
		s := f.Sys.NewSession(ctx)
		if err := s.Connect(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenSchema(workload.SchemaName); err != nil {
			t.Fatalf("ctx %s: %v", ctx, err)
		}
	}
}
