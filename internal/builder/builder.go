// Package builder implements the paper's generic interface builder (§3.3,
// §3.5): the single generic module that assembles every window kind from a
// (data, presentation) pair — the result of a Get_Schema / Get_Class /
// Get_Value primitive plus the customization the active mechanism selected
// for the calling context (nil when the generic default applies).
//
// The builder never special-cases an application: customization is entirely
// data-driven through spec values and library prototypes, which is the
// transparency property B2 measures against the hardwired baseline.
package builder

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/uikit"
)

// MethodCaller resolves method-sourced attribute content (the from-clause
// form get_supplier_name(pole_supplier)). *geodb.DB, *ui.DirectBackend and
// *client.Client all implement it, so the builder works identically under
// strong and weak integration.
type MethodCaller interface {
	CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error)
}

// Window-build latency histograms, one per window kind (§ Observability in
// DESIGN.md). Resolved once so the build path costs two atomic adds.
var (
	buildSchemaSeconds   = obs.Default().Histogram(`gis_ui_window_build_seconds{kind="schema"}`, obs.LatencyBuckets)
	buildClassSeconds    = obs.Default().Histogram(`gis_ui_window_build_seconds{kind="classset"}`, obs.LatencyBuckets)
	buildInstanceSeconds = obs.Default().Histogram(`gis_ui_window_build_seconds{kind="instance"}`, obs.LatencyBuckets)
)

// Builder assembles windows from library prototypes. It is stateless apart
// from its library and method caller, and safe for concurrent use.
type Builder struct {
	lib *uikit.Library
	mc  MethodCaller
}

// New returns a builder over the interface objects library. mc resolves
// method-sourced attribute panels; it may be nil when no customization uses
// method sources.
func New(lib *uikit.Library, mc MethodCaller) *Builder {
	return &Builder{lib: lib, mc: mc}
}

// Library exposes the builder's interface objects library.
func (b *Builder) Library() *uikit.Library { return b.lib }

// BuildSchemaWindow assembles a Schema window: control panel plus the class
// inventory, presented per the schema clause's display mode. A Null display
// builds the window hidden (it still anchors the window hierarchy — the
// paper's R1 behaviour).
func (b *Builder) BuildSchemaWindow(info geodb.SchemaInfo, sc *spec.SchemaCust) (*uikit.Widget, error) {
	sw := obs.Start(buildSchemaSeconds)
	win := uikit.New(uikit.KindWindow, "schema:"+info.Name)
	win.SetProp("title", "Schema "+info.Name)
	win.SetProp("window_type", "Schema")
	visible := "true"
	if sc != nil && sc.Display == spec.DisplayNull {
		visible = "false"
	}
	win.SetProp("visible", visible)

	control := uikit.New(uikit.KindPanel, "control").Add(
		uikit.New(uikit.KindButton, "open").SetProp("label", "Open").
			Bind("click", "schema.open"),
		uikit.New(uikit.KindButton, "quit").SetProp("label", "Quit").
			Bind("click", "schema.quit"),
	)
	display := uikit.New(uikit.KindPanel, "display")
	if sc != nil && sc.Display == spec.DisplayUserDefined {
		w, err := b.lib.Instantiate(sc.Widget)
		if err != nil {
			return nil, fmt.Errorf("builder: schema display widget: %w", err)
		}
		display.Add(w)
	}
	list := uikit.New(uikit.KindList, "classes").Bind("select", "schema.select_class")
	if sc != nil && sc.Display == spec.DisplayHierarchy {
		list.Items = hierarchyItems(info)
	} else {
		list.Items = append(list.Items, info.Classes...)
	}
	display.Add(list)
	win.Add(control, display)
	sw.Stop()
	return win, nil
}

// hierarchyItems lists classes as an indented inheritance tree, roots first
// (the "display as hierarchy" mode). Item count equals the class count.
func hierarchyItems(info geodb.SchemaInfo) []string {
	children := make(map[string][]string, len(info.Classes))
	for _, c := range info.Classes {
		p := info.Parents[c]
		children[p] = append(children[p], c)
	}
	out := make([]string, 0, len(info.Classes))
	var walk func(class string, depth int)
	walk = func(class string, depth int) {
		out = append(out, strings.Repeat("  ", depth)+class)
		for _, sub := range children[class] {
			walk(sub, depth+1)
		}
	}
	for _, c := range info.Classes {
		if info.Parents[c] == "" {
			walk(c, 0)
		}
	}
	return out
}

// BuildClassWindow assembles a Class set window: the operations menu, the
// control-area class widget (the default button or the customization's
// library prototype), the attribute inventory, and the presentation area
// with one drawn shape per shape of the extension.
func (b *Builder) BuildClassWindow(info geodb.ClassInfo, shapes []geodb.Shape, cc *spec.ClassCust) (*uikit.Widget, error) {
	sw := obs.Start(buildClassSeconds)
	name := info.Class.Name
	win := uikit.New(uikit.KindWindow, "classset:"+name)
	win.SetProp("title", "Class set "+name)
	win.SetProp("window_type", "Class set")
	win.SetProp("visible", "true")

	menu := uikit.New(uikit.KindMenu, "operations").Add(
		uikit.New(uikit.KindMenuItem, "zoom").SetProp("label", "Zoom").
			Bind("click", "classset.zoom"),
		uikit.New(uikit.KindMenuItem, "select").SetProp("label", "Select").
			Bind("click", "classset.select"),
		uikit.New(uikit.KindMenuItem, "close").SetProp("label", "Close").
			Bind("click", "classset.close"),
	)
	var classWidget *uikit.Widget
	if cc != nil && cc.Control != "" {
		w, err := b.lib.Instantiate(cc.Control)
		if err != nil {
			return nil, fmt.Errorf("builder: control widget %q: %w", cc.Control, err)
		}
		classWidget = w.SetProp("class", name)
	} else {
		classWidget = uikit.New(uikit.KindButton, "class_widget").SetProp("label", name)
	}
	classWidget.Bind("click", "classset.focus_class")

	attrList := uikit.New(uikit.KindList, "attributes")
	for _, a := range info.Attrs {
		attrList.Items = append(attrList.Items, fmt.Sprintf("%s: %s", a.Name, a.Type))
	}
	control := uikit.New(uikit.KindPanel, "control").Add(menu, classWidget, attrList)

	format := "pointFormat"
	if cc != nil && cc.Presentation != "" {
		format = cc.Presentation
	}
	area := uikit.New(uikit.KindDrawingArea, "map").Bind("pick", "classset.pick_instance")
	lower := strings.ToLower(name)
	for _, sh := range shapes {
		area.Shapes = append(area.Shapes, uikit.Shape{
			OID:    uint64(sh.OID),
			Geom:   sh.Geom,
			Label:  fmt.Sprintf("%s-%d", lower, sh.OID),
			Format: format,
		})
	}
	win.Add(control, uikit.New(uikit.KindPanel, "display").Add(area))
	sw.Stop()
	return win, nil
}

// BuildInstanceWindow assembles an Instance window: one attribute panel per
// effective attribute. A customized attribute may be suppressed (Null),
// presented by a library widget fed from from-clause sources, or default to
// a labelled text field of the stored value (§3.4: omitted attributes keep
// the default presentation).
func (b *Builder) BuildInstanceWindow(in geodb.Instance, ic *spec.InstanceCust) (*uikit.Widget, error) {
	sw := obs.Start(buildInstanceSeconds)
	win := uikit.New(uikit.KindWindow, fmt.Sprintf("instance:%s:%d", in.Class, in.OID))
	win.SetProp("title", fmt.Sprintf("Instance %s %d", in.Class, in.OID))
	win.SetProp("window_type", "Instance")
	win.SetProp("visible", "true")

	control := uikit.New(uikit.KindPanel, "control").Add(
		uikit.New(uikit.KindButton, "apply").SetProp("label", "Apply").
			Bind("click", "instance.apply"),
		uikit.New(uikit.KindButton, "close").SetProp("label", "Close").
			Bind("click", "instance.close"),
	)
	attrs := uikit.New(uikit.KindPanel, "attributes")
	for i, a := range in.Attrs {
		var ac spec.AttrCust
		var customized bool
		if ic != nil {
			ac, customized = ic.Attr(a.Name)
		}
		switch {
		case customized && ac.Null:
			continue
		case customized && ac.Widget != "":
			w, err := b.lib.Instantiate(ac.Widget)
			if err != nil {
				return nil, fmt.Errorf("builder: attribute widget %q: %w", ac.Widget, err)
			}
			value, err := b.resolveSources(in, i, ac.From)
			if err != nil {
				return nil, err
			}
			w.SetProp("value", value)
			if ac.Using != "" {
				w.Bind("notify", ac.Using)
			}
			attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
				SetProp("label", a.Name).Add(w))
		default:
			attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
				SetProp("label", a.Name).
				Add(uikit.New(uikit.KindText, "attr_value:"+a.Name).
					SetProp("value", in.Values[i].String())))
		}
	}
	win.Add(control, attrs)
	sw.Stop()
	return win, nil
}

// resolveSources materializes a customized attribute's content: each source
// value rendered and joined with single spaces (the paper's composed
// pole_composition presentation). An empty from-clause keeps the attribute's
// own stored value.
func (b *Builder) resolveSources(in geodb.Instance, attrIdx int, from []spec.AttrSource) (string, error) {
	if len(from) == 0 {
		return in.Values[attrIdx].String(), nil
	}
	parts := make([]string, 0, len(from))
	for _, src := range from {
		v, err := b.resolveSource(in, src)
		if err != nil {
			return "", err
		}
		parts = append(parts, v.String())
	}
	return strings.Join(parts, " "), nil
}

// resolveSource evaluates one from-clause source against the instance:
// either an attribute path (possibly into a tuple component) or a method
// call whose arguments are themselves attribute names.
func (b *Builder) resolveSource(in geodb.Instance, src spec.AttrSource) (catalog.Value, error) {
	if src.Method != "" {
		if b.mc == nil {
			return catalog.Value{}, fmt.Errorf("builder: method source %q needs a method caller", src.Method)
		}
		args := make([]catalog.Value, len(src.Args))
		for i, name := range src.Args {
			v, ok := in.Get(name)
			if !ok {
				return catalog.Value{}, fmt.Errorf("builder: method %s: unknown argument attribute %q on %s",
					src.Method, name, in.Class)
			}
			args[i] = v
		}
		v, err := b.mc.CallMethod(in.OID, src.Method, args...)
		if err != nil {
			return catalog.Value{}, fmt.Errorf("builder: method source %s: %w", src.Method, err)
		}
		return v, nil
	}
	attr, field, _ := strings.Cut(src.Attr, ".")
	for i, a := range in.Attrs {
		if a.Name != attr {
			continue
		}
		v := in.Values[i]
		if field == "" {
			return v, nil
		}
		for fi, f := range a.Type.Fields {
			if f.Name == field {
				if fi < len(v.Tuple) {
					return v.Tuple[fi], nil
				}
				return catalog.Null, nil
			}
		}
		return catalog.Value{}, fmt.Errorf("builder: attribute %q has no component %q", attr, field)
	}
	return catalog.Value{}, fmt.Errorf("builder: unknown source attribute %q on %s", attr, in.Class)
}
