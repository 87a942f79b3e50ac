package experiments_test

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/custlang"
	"repro/internal/experiments"
	"repro/internal/hardwired"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/spec"
	"repro/internal/uikit"
	"repro/internal/workload"
)

// newTable writes aligned columns. The last cell of a line is not padded,
// so no line ends in blanks that gofmt would strip from an Output comment.
func newTable() *tabwriter.Writer { return tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0) }

// Example_figure1 reproduces Figure 1: the architecture's event flow. It
// traces one customized interaction from the user event through the database
// event, the active mechanism's rule selection, the interface objects
// library, and the generic interface builder back to the screen. The active
// mechanism's part is read from the engine's spans, as an operator reads it
// at /traces.
func Example_figure1() {
	f := experiments.MustFixture(4, 1, true)
	defer f.Close()
	fmt.Println("Figure 1 — event flow through the architecture")
	fmt.Println("(user event -> GIS interface -> DB event -> active mechanism ->")
	fmt.Println(" interface objects library -> generic interface builder -> screen)")
	fmt.Println()
	rec := obs.NewSpanRecorder(64)
	f.Sys.Engine.Tracer().AttachSink(rec)
	s := f.Sys.NewSession(experiments.JulianoCtx)
	if err := s.Connect(); err != nil {
		log.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		log.Fatal(err)
	}
	fmt.Println("active mechanism spans, in start order:")
	spans := rec.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, sp := range spans {
		fmt.Println("  [engine]    ", spanLine(sp))
	}
	fmt.Println()
	fmt.Println("dispatcher trace:")
	for _, line := range s.Explain() {
		fmt.Println("  [dispatcher]", line)
	}
	fmt.Println()
	fmt.Printf("windows on screen: %v\n", s.Windows())
	// Output:
	// Figure 1 — event flow through the architecture
	// (user event -> GIS interface -> DB event -> active mechanism ->
	//  interface objects library -> generic interface builder -> screen)
	//
	// active mechanism spans, in start order:
	//   [engine]     active.dispatch event="Connect" ctx="<juliano, pole_manager>" candidates="0" cache="miss"
	//   [engine]     active.dispatch event="Get_Schema" ctx="<juliano, pole_manager>" candidates="1" cache="miss" selected="cust0[u=juliano,a=pole_manager]schema:phone_net" specificity="812"
	//   [engine]     active.dispatch event="Get_Class" ctx="<juliano, pole_manager>" class="Pole" candidates="1" cache="miss" selected="cust0[u=juliano,a=pole_manager]class:Pole" specificity="814"
	//
	// dispatcher trace:
	//   [dispatcher] connected as <juliano, pole_manager>
	//   [dispatcher] Get_Schema(phone_net): customization from rule "cust0[u=juliano,a=pole_manager]schema:phone_net" (display Null)
	//   [dispatcher] window "schema:phone_net" added to hierarchy (parent "")
	//   [dispatcher] Get_Class(Pole): customization from rule "cust0[u=juliano,a=pole_manager]class:Pole" (control poleWidget, presentation pointFormat)
	//   [dispatcher] window "classset:Pole" added to hierarchy (parent "schema:phone_net")
	//
	// windows on screen: [schema:phone_net classset:Pole]
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

// Example_figure2 reproduces Figure 2: the kernel classes of the interface
// objects library and their aggregation relationships.
func Example_figure2() {
	lib, err := workload.StandardLibrary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 2 — kernel classes of interface objects")
	fmt.Println()
	t := newTable()
	fmt.Fprintln(t, "prototype\tkind\tchildren\tsubtree")
	for _, r := range lib.Report() {
		fmt.Fprintf(t, "%s\t%s\t%d\t%d\n", r.Name, r.Kind, r.Children, r.Subtree)
	}
	t.Flush()
	fmt.Println()
	fmt.Println("aggregation relationships (as modelled):")
	fmt.Println("  Window  *-- Panel             (a window is composed of panels)")
	fmt.Println("  Panel   *-- Panel             (recursive composition, §3.2)")
	fmt.Println("  Panel   *-- Text | DrawingArea | List | Button | Menu")
	fmt.Println("  Menu    *-- MenuItem")
	fmt.Println()
	// Demonstrate both extension axes live.
	if err := lib.Specialize("confirm_button", "button", func(x *uikit.Widget) {
		x.SetProp("label", "Confirm").SetProp("style", "bold")
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extensibility: specialized %q from %q; library now has %d prototypes\n",
		"confirm_button", "button", lib.Len())
	// Output:
	// Figure 2 — kernel classes of interface objects
	//
	// prototype      kind          children  subtree
	// button         button        0         1
	// composed_text  text          0         1
	// drawing_area   drawing_area  0         1
	// list           list          0         1
	// map_selection  panel         3         4
	// menu           menu          0         1
	// menu_item      menu_item     0         1
	// panel          panel         0         1
	// poleWidget     slider        0         1
	// text           text          0         1
	// window         window        0         1
	//
	// aggregation relationships (as modelled):
	//   Window  *-- Panel             (a window is composed of panels)
	//   Panel   *-- Panel             (recursive composition, §3.2)
	//   Panel   *-- Text | DrawingArea | List | Button | Menu
	//   Menu    *-- MenuItem
	//
	// extensibility: specialized "confirm_button" from "button"; library now has 12 prototypes
}

// Example_figure3 reproduces Figure 3: every construct of the customization
// language, parsed and round-tripped through the canonical printer.
func Example_figure3() {
	fmt.Println("Figure 3 — the basic constructs of the customization language")
	fmt.Println()
	samples := []struct{ name, src string }{
		{"class control+presentation", "For user u\nschema s display as default\nclass C display\n  control as w\n  presentation as pointFormat"},
		{"context parts (user/category/application)", "For user u category planners application app\nschema s display as default"},
		{"instances Null attribute", "For user u\nschema s display as default\nclass C display\n  instances\n    display attribute a as Null"},
		{"instances with from/using", "For user u\nschema s display as default\nclass C display\n  instances\n    display attribute a as t\n      from x y.z m(p, q)\n      using cb()"},
		{"schema Null", "For user u\nschema s display as Null"},
		{"schema display modes", "For user u\nschema s display as hierarchy"},
		{"schema user-defined widget", "For user u\nschema s display as user-defined fancy"},
	}
	t := newTable()
	fmt.Fprintln(t, "construct\tparses\tround-trips")
	for _, c := range samples {
		d, err := custlang.ParseOne(c.src)
		if err != nil {
			log.Fatalf("construct %q: %v", c.name, err)
		}
		back, err := custlang.ParseOne(d.String())
		roundTrips := err == nil && back.String() == d.String()
		fmt.Fprintf(t, "%s\tyes\t%v\n", c.name, roundTrips)
	}
	t.Flush()
	fmt.Println()
	fmt.Println("Figure 6 script in canonical form:")
	d, err := custlang.ParseOne(workload.Figure6Source)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
		fmt.Println("  " + line)
	}
	// Output:
	// Figure 3 — the basic constructs of the customization language
	//
	// construct                                  parses  round-trips
	// class control+presentation                 yes     true
	// context parts (user/category/application)  yes     true
	// instances Null attribute                   yes     true
	// instances with from/using                  yes     true
	// schema Null                                yes     true
	// schema display modes                       yes     true
	// schema user-defined widget                 yes     true
	//
	// Figure 6 script in canonical form:
	//   For user juliano application pole_manager
	//   schema phone_net display as Null
	//   class Pole display
	//     control as poleWidget
	//     presentation as pointFormat
	//     instances
	//       display attribute pole_composition as composed_text
	//         from pole.material pole.diameter pole.height
	//         using composed_text.notify()
	//       display attribute pole_supplier as text
	//         from get_supplier_name(pole_supplier)
	//       display attribute pole_location as Null
}

// Example_figure4 reproduces Figure 4: the three default interface windows
// for the telephone network, rendered as structured text.
func Example_figure4() {
	f := experiments.MustFixture(4, 1, false)
	defer f.Close()
	s := f.Sys.NewSession(experiments.MariaCtx)
	if err := s.Connect(); err != nil {
		log.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		log.Fatal(err)
	}
	if err := s.Interact("schema:"+workload.SchemaName, "classes", "select", "Pole"); err != nil {
		log.Fatal(err)
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 4 — default interface windows (Schema | Class set | Instance)")
	fmt.Println()
	fmt.Print(s.Screen())
	// Output:
	// Figure 4 — default interface windows (Schema | Class set | Instance)
	//
	// window schema:phone_net {title="Schema phone_net" visible="true" window_type="Schema"}
	//   panel control
	//     button open {label="Open"} on[click->schema.open]
	//     button quit {label="Quit"} on[click->schema.quit]
	//   panel display
	//     list classes on[select->schema.select_class]
	//       - Supplier
	//       - Zone
	//       - Pole
	//       - Duct
	//
	// window classset:Pole {schema="phone_net" title="Class set Pole" visible="true" window_type="Class set"}
	//   panel control
	//     menu operations
	//       menu_item zoom {label="Zoom"} on[click->classset.zoom]
	//       menu_item select {label="Select"} on[click->classset.select]
	//       menu_item close {label="Close"} on[click->classset.close]
	//     button class_widget {label="Pole"} on[click->classset.focus_class]
	//     list attributes
	//       - pole_type: integer
	//       - pole_composition: tuple(pole_material: text; pole_diameter: float; pole_height: float)
	//       - pole_supplier: Supplier
	//       - pole_location: Geometry
	//       - pole_picture: bitmap
	//       - pole_historic: text
	//   panel display
	//     drawing_area map on[pick->classset.pick_instance]
	//       * pole-5 POINT (774.357195 21.239391) [pointFormat]
	//       * pole-6 POINT (673.06634 694.300976) [pointFormat]
	//       * pole-7 POINT (767.642323 453.10929) [pointFormat]
	//       * pole-8 POINT (821.083371 724.606019) [pointFormat]
	//
	// window instance:Pole:5 {title="Instance Pole 5" visible="true" window_type="Instance"}
	//   panel control
	//     button apply {label="Apply"} on[click->instance.apply]
	//     button close {label="Close"} on[click->instance.close]
	//   panel attributes
	//     panel attr:pole_type {label="pole_type"}
	//       text attr_value:pole_type {value="2"}
	//     panel attr:pole_composition {label="pole_composition"}
	//       text attr_value:pole_composition {value="(wood, 0.422625, 11.348501)"}
	//     panel attr:pole_supplier {label="pole_supplier"}
	//       text attr_value:pole_supplier {value="ref:2"}
	//     panel attr:pole_location {label="pole_location"}
	//       text attr_value:pole_location {value="POINT (774.357195 21.239391)"}
	//     panel attr:pole_picture {label="pole_picture"}
	//       text attr_value:pole_picture {value="null"}
	//     panel attr:pole_historic {label="pole_historic"}
	//       text attr_value:pole_historic {value="installed 1995"}
}

// Example_figure5 reproduces Figure 5: the database schema for class Pole.
func Example_figure5() {
	f := experiments.MustFixture(1, 1, false)
	defer f.Close()
	sch, err := f.Sys.DB.Catalog().Schema(workload.SchemaName)
	if err != nil {
		log.Fatal(err)
	}
	desc, err := sch.DescribeClass("Pole")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 5 — database schema for class Pole")
	fmt.Println()
	fmt.Println(desc)
	// Output:
	// Figure 5 — database schema for class Pole
	//
	// Class Pole {
	//   pole_type: integer;
	//   pole_composition: tuple(pole_material: text; pole_diameter: float; pole_height: float);
	//   pole_supplier: Supplier;
	//   pole_location: Geometry;
	//   pole_picture: bitmap;
	//   pole_historic: text;
	//   Methods: get_supplier_name(Supplier);
	// }
}

// Example_figure6 reproduces Figure 6: the customization script compiled
// into active database rules, printed in the paper's On/If/Then notation
// (§4's R1, R2 plus the instance rule).
func Example_figure6() {
	f := experiments.MustFixture(1, 1, false)
	defer f.Close()
	units, err := f.Sys.Analyzer().CompileSource(workload.Figure6Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 6 — customization script and its generated rules")
	fmt.Println()
	fmt.Println("source:")
	for _, line := range strings.Split(strings.TrimRight(workload.Figure6Source, "\n"), "\n") {
		fmt.Println("  " + line)
	}
	fmt.Println()
	fmt.Println("generated rules (paper notation):")
	for i, r := range units[0].Rules {
		cust, err := r.Customize(experiments.JulianoEvent())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  R%d: On %s\n", i+1, r.On)
		fmt.Printf("      If %s\n", r.Context)
		fmt.Printf("      Then %s\n", actionNotation(cust))
	}
	// Output:
	// Figure 6 — customization script and its generated rules
	//
	// source:
	//   For user juliano application pole_manager
	//   schema phone_net display as Null
	//   class Pole display
	//     control as poleWidget
	//     presentation as pointFormat
	//     instances
	//       display attribute pole_composition as composed_text
	//         from pole.material pole.diameter pole.height
	//         using composed_text.notify()
	//       display attribute pole_supplier as text
	//         from get_supplier_name(pole_supplier)
	//       display attribute pole_location as Null
	//
	// generated rules (paper notation):
	//   R1: On Get_Schema
	//       If <juliano, pole_manager>
	//       Then Build_Window(Schema, phone_net, NULL); Get_Class(Pole)
	//   R2: On Get_Class
	//       If <juliano, pole_manager>
	//       Then Build_Window(Class_set, Pole, poleWidget, pointFormat)
	//   R3: On Get_Value
	//       If <juliano, pole_manager>
	//       Then Build_Window(Instance, Pole, {pole_composition=composed_text, pole_supplier=text, pole_location=Null})
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

// Example_figure7 reproduces Figure 7: the customized windows for the
// context <juliano, pole_manager>, including the map as SVG.
func Example_figure7() {
	f := experiments.MustFixture(4, 1, true)
	defer f.Close()
	s := f.Sys.NewSession(experiments.JulianoCtx)
	if err := s.Connect(); err != nil {
		log.Fatal(err)
	}
	if _, err := s.OpenSchema(workload.SchemaName); err != nil {
		log.Fatal(err)
	}
	if err := s.Interact("classset:Pole", "map", "pick", uint64(f.Net.Poles[0])); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 7 — customized interface windows (context <juliano, pole_manager>)")
	fmt.Println()
	fmt.Print(s.Screen())
	win, err := s.Window("classset:Pole")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("presentation area as SVG:")
	fmt.Print(render.SVG(win.Find("map"), render.SVGOptions{Width: 320, Height: 200}))
	// Output:
	// Figure 7 — customized interface windows (context <juliano, pole_manager>)
	//
	// (hidden) schema:phone_net "Schema phone_net"
	//
	// window classset:Pole {schema="phone_net" title="Class set Pole" visible="true" window_type="Class set"}
	//   panel control
	//     menu operations
	//       menu_item zoom {label="Zoom"} on[click->classset.zoom]
	//       menu_item select {label="Select"} on[click->classset.select]
	//       menu_item close {label="Close"} on[click->classset.close]
	//     slider poleWidget {class="Pole" max="20" min="0"} on[click->classset.focus_class]
	//     list attributes
	//       - pole_type: integer
	//       - pole_composition: tuple(pole_material: text; pole_diameter: float; pole_height: float)
	//       - pole_supplier: Supplier
	//       - pole_location: Geometry
	//       - pole_picture: bitmap
	//       - pole_historic: text
	//   panel display
	//     drawing_area map on[pick->classset.pick_instance]
	//       * pole-5 POINT (774.357195 21.239391) [pointFormat]
	//       * pole-6 POINT (673.06634 694.300976) [pointFormat]
	//       * pole-7 POINT (767.642323 453.10929) [pointFormat]
	//       * pole-8 POINT (821.083371 724.606019) [pointFormat]
	//
	// window instance:Pole:5 {title="Instance Pole 5" visible="true" window_type="Instance"}
	//   panel control
	//     button apply {label="Apply"} on[click->instance.apply]
	//     button close {label="Close"} on[click->instance.close]
	//   panel attributes
	//     panel attr:pole_type {label="pole_type"}
	//       text attr_value:pole_type {value="2"}
	//     panel attr:pole_composition {label="pole_composition"}
	//       text composed_text {composed="true" value="wood 0.422625 11.348501"} on[notify->composed_text.notify]
	//     panel attr:pole_supplier {label="pole_supplier"}
	//       text text {value="Supplier-01"}
	//     panel attr:pole_picture {label="pole_picture"}
	//       text attr_value:pole_picture {value="null"}
	//     panel attr:pole_historic {label="pole_historic"}
	//       text attr_value:pole_historic {value="installed 1995"}
	//
	// presentation area as SVG:
	// <svg xmlns="http://www.w3.org/2000/svg" width="320" height="200" viewBox="0 0 320 200">
	//   <rect width="320" height="200" fill="white"/>
	//   <circle cx="167.3" cy="194.3" r="3" fill="black"/>
	//   <circle cx="140.2" cy="13.8" r="3" fill="black"/>
	//   <circle cx="165.5" cy="78.5" r="3" fill="black"/>
	//   <circle cx="179.8" cy="5.7" r="3" fill="black"/>
	// </svg>
}

// Example_b3 quantifies the headline cost claim (§1/§5): what one more
// customized context costs with the language versus hardwired code.
func Example_b3() {
	// The hardwired pole-manager variant's window code in
	// internal/hardwired is ~120 lines ≈ 3.6 KB of Go; measured once and
	// recorded here as the baseline artifact size.
	hw := hardwired.HardwiredCost(3600)
	dir := hardwired.DirectiveCost(len(workload.Figure6Source))
	fmt.Println("B3 — cost of customizing the interface for one new context")
	fmt.Println()
	t := newTable()
	fmt.Fprintln(t, "approach\tartifacts touched\tdispatch edits\tspec bytes\trebuild+redeploy")
	for _, c := range []struct {
		name string
		hardwired.CostModel
	}{{"hardwired code", hw}, {"customization language", dir}} {
		fmt.Fprintf(t, "%s\t%d\t%d\t%d\t%v\n", c.name, c.ArtifactsTouched, c.DispatchEdits, c.SpecBytes, c.RebuildRequired)
	}
	t.Flush()
	fmt.Println()
	fmt.Printf("spec ratio: hardwired/directive = %.1fx; directives install at run time.\n",
		float64(hw.SpecBytes)/float64(dir.SpecBytes))
	// Output:
	// B3 — cost of customizing the interface for one new context
	//
	// approach                artifacts touched  dispatch edits  spec bytes  rebuild+redeploy
	// hardwired code          3                  3               3600        true
	// customization language  1                  0               434         false
	//
	// spec ratio: hardwired/directive = 8.3x; directives install at run time.
}
