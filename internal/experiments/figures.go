package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/custlang"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/spec"
	"repro/internal/uikit"
	"repro/internal/workload"
)

// RunF1 reproduces Figure 1: the architecture's event flow. It traces one
// customized interaction from the user event through the database event,
// the active mechanism's rule selection, the interface objects library, and
// the generic interface builder back to the screen. The active mechanism's
// part is read from the engine's spans, as an operator reads it at /traces.
func RunF1(w io.Writer, _ bool) error {
	f, err := NewFixture(4, 1, true)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(w, "Figure 1 — event flow through the architecture")
	fmt.Fprintln(w, "(user event -> GIS interface -> DB event -> active mechanism ->")
	fmt.Fprintln(w, " interface objects library -> generic interface builder -> screen)")
	fmt.Fprintln(w)
	rec := obs.NewSpanRecorder(64)
	f.Sys.Engine.Tracer().AttachSink(rec)
	s := f.Sys.NewSession(JulianoCtx)
	if err := s.Connect(); err != nil {
		return err
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		return err
	}
	fmt.Fprintln(w, "active mechanism spans, in start order:")
	spans := rec.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, sp := range spans {
		fmt.Fprintln(w, "  [engine]    ", spanLine(sp))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "dispatcher trace:")
	for _, line := range s.Explain() {
		fmt.Fprintln(w, "  [dispatcher]", line)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "windows on screen: %v\n", s.Windows())
	return nil
}

// spanLine renders a span as its name and its attributes in order.
func spanLine(sp obs.Span) string {
	var b strings.Builder
	b.WriteString(sp.Name)
	for _, a := range sp.Attrs {
		fmt.Fprintf(&b, " %s=%q", a.Key, a.Value)
	}
	return b.String()
}

// RunF2 reproduces Figure 2: the kernel classes of the interface objects
// library and their aggregation relationships.
func RunF2(w io.Writer, _ bool) error {
	lib, err := workload.StandardLibrary()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2 — kernel classes of interface objects")
	fmt.Fprintln(w)
	t := newTable("prototype", "kind", "children", "subtree")
	for _, r := range lib.Report() {
		t.add(r.Name, r.Kind, r.Children, r.Subtree)
	}
	t.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "aggregation relationships (as modelled):")
	fmt.Fprintln(w, "  Window  *-- Panel             (a window is composed of panels)")
	fmt.Fprintln(w, "  Panel   *-- Panel             (recursive composition, §3.2)")
	fmt.Fprintln(w, "  Panel   *-- Text | DrawingArea | List | Button | Menu")
	fmt.Fprintln(w, "  Menu    *-- MenuItem")
	fmt.Fprintln(w)
	// Demonstrate both extension axes live.
	if err := lib.Specialize("confirm_button", "button", func(x *uikit.Widget) {
		x.SetProp("label", "Confirm").SetProp("style", "bold")
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "extensibility: specialized %q from %q; library now has %d prototypes\n",
		"confirm_button", "button", lib.Len())
	return nil
}

// RunF3 reproduces Figure 3: every construct of the customization language,
// parsed and round-tripped through the canonical printer.
func RunF3(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "Figure 3 — the basic constructs of the customization language")
	fmt.Fprintln(w)
	samples := map[string]string{
		"context parts (user/category/application)": "For user u category planners application app\nschema s display as default",
		"schema display modes":                      "For user u\nschema s display as hierarchy",
		"schema user-defined widget":                "For user u\nschema s display as user-defined fancy",
		"schema Null":                               "For user u\nschema s display as Null",
		"class control+presentation":                "For user u\nschema s display as default\nclass C display\n  control as w\n  presentation as pointFormat",
		"instances with from/using":                 "For user u\nschema s display as default\nclass C display\n  instances\n    display attribute a as t\n      from x y.z m(p, q)\n      using cb()",
		"instances Null attribute":                  "For user u\nschema s display as default\nclass C display\n  instances\n    display attribute a as Null",
	}
	t := newTable("construct", "parses", "round-trips")
	for _, name := range sortedKeys(samples) {
		src := samples[name]
		d, err := custlang.ParseOne(src)
		if err != nil {
			return fmt.Errorf("construct %q: %w", name, err)
		}
		back, err := custlang.ParseOne(d.String())
		roundTrips := err == nil && back.String() == d.String()
		t.add(name, "yes", fmt.Sprint(roundTrips))
	}
	t.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 6 script in canonical form:")
	d, err := custlang.ParseOne(workload.Figure6Source)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
		fmt.Fprintln(w, "  "+line)
	}
	return nil
}

// RunF4 reproduces Figure 4: the three default interface windows for the
// telephone network, rendered as structured text.
func RunF4(w io.Writer, _ bool) error {
	f, err := NewFixture(4, 1, false)
	if err != nil {
		return err
	}
	defer f.Close()
	s := f.Sys.NewSession(MariaCtx)
	if err := s.Connect(); err != nil {
		return err
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		return err
	}
	if err := s.Interact("schema:"+workload.SchemaName, "classes", "select", "Pole"); err != nil {
		return err
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4 — default interface windows (Schema | Class set | Instance)")
	fmt.Fprintln(w)
	fmt.Fprint(w, s.Screen())
	return nil
}

// RunF5 reproduces Figure 5: the database schema for class Pole.
func RunF5(w io.Writer, _ bool) error {
	f, err := NewFixture(1, 1, false)
	if err != nil {
		return err
	}
	defer f.Close()
	sch, err := f.Sys.DB.Catalog().Schema(workload.SchemaName)
	if err != nil {
		return err
	}
	desc, err := sch.DescribeClass("Pole")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5 — database schema for class Pole")
	fmt.Fprintln(w)
	fmt.Fprintln(w, desc)
	return nil
}

// RunF6 reproduces Figure 6: the customization script compiled into active
// database rules, printed in the paper's On/If/Then notation (§4's R1, R2
// plus the instance rule).
func RunF6(w io.Writer, _ bool) error {
	f, err := NewFixture(1, 1, false)
	if err != nil {
		return err
	}
	defer f.Close()
	units, err := f.Sys.Analyzer().CompileSource(workload.Figure6Source)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6 — customization script and its generated rules")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "source:")
	for _, line := range strings.Split(strings.TrimRight(workload.Figure6Source, "\n"), "\n") {
		fmt.Fprintln(w, "  "+line)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "generated rules (paper notation):")
	for i, r := range units[0].Rules {
		cust, err := r.Customize(JulianoEvent())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  R%d: On %s\n", i+1, r.On)
		fmt.Fprintf(w, "      If %s\n", r.Context)
		fmt.Fprintf(w, "      Then %s\n", actionNotation(cust))
	}
	return nil
}

// actionNotation renders a customization in the paper's Build_Window style.
func actionNotation(c spec.Customization) string {
	switch c.Level {
	case spec.LevelSchema:
		s := fmt.Sprintf("Build_Window(Schema, %s, %s)", c.Schema.Schema, strings.ToUpper(c.Schema.Display.String()))
		for _, cls := range c.Schema.Classes {
			if c.Schema.Display == spec.DisplayNull {
				s += fmt.Sprintf("; Get_Class(%s)", cls)
			}
		}
		return s
	case spec.LevelClass:
		return fmt.Sprintf("Build_Window(Class_set, %s, %s, %s)",
			c.Class.Class, c.Class.Control, c.Class.Presentation)
	case spec.LevelInstance:
		parts := make([]string, 0, len(c.Instance.Attrs))
		for _, a := range c.Instance.Attrs {
			if a.Null {
				parts = append(parts, a.Attr+"=Null")
			} else {
				parts = append(parts, a.Attr+"="+a.Widget)
			}
		}
		return fmt.Sprintf("Build_Window(Instance, %s, {%s})",
			c.Instance.Class, strings.Join(parts, ", "))
	default:
		return "<invalid>"
	}
}

// JulianoEvent is a representative event in juliano's context for exercising
// rule actions outside a live dispatch.
func JulianoEvent() event.Event {
	return event.Event{Ctx: JulianoCtx}
}

// RunF7 reproduces Figure 7: the customized windows for the context
// <juliano, pole_manager>, including the map as SVG.
func RunF7(w io.Writer, _ bool) error {
	f, err := NewFixture(4, 1, true)
	if err != nil {
		return err
	}
	defer f.Close()
	s := f.Sys.NewSession(JulianoCtx)
	if err := s.Connect(); err != nil {
		return err
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		return err
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7 — customized interface windows (context <juliano, pole_manager>)")
	fmt.Fprintln(w)
	fmt.Fprint(w, s.Screen())
	win, err := s.Window("classset:Pole")
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "presentation area as SVG:")
	fmt.Fprint(w, render.SVG(win.Find("map"), render.SVGOptions{Width: 320, Height: 200}))
	return nil
}
