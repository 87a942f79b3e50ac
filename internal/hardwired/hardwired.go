// Package hardwired implements the conventional baseline the paper compares
// against (§1, §3.5): a GIS interface where "each application interface is
// hardwired into the gis interface" — specific code per window kind per
// application variant, no interface objects library, no active rules. It
// exists so the benchmarks can quantify the paper's two claims:
//
//   - B2 (transparency/overhead): how much window-build latency the dynamic,
//     rule-driven path costs over direct construction;
//   - B3 (customization cost): how many artifacts a programmer must write
//     or modify — and whether a rebuild is needed — to support a new
//     context, hardwired versus the customization language.
//
// The duplication between the variants below is deliberate: it is the
// phenomenon being measured. Each variant is what a programmer would have
// written and shipped as separate interface code.
package hardwired

import (
	"fmt"
	"strings"

	"repro/internal/geodb"
	"repro/internal/uikit"
)

// Variant selects which hardwired application interface runs. Adding a
// variant means writing new window functions and extending every dispatch
// switch below — the modification cost the paper's approach eliminates.
type Variant uint8

// The shipped variants.
const (
	// VariantGeneric is the default look and feel.
	VariantGeneric Variant = iota + 1
	// VariantPoleManager is the pole-manager customization of §4,
	// hand-coded: hidden schema window, slider class widget, composed
	// instance attributes, suppressed location.
	VariantPoleManager
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantGeneric:
		return "generic"
	case VariantPoleManager:
		return "pole_manager"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// UI is a hardwired interface bound to one variant at build time.
type UI struct {
	db      *geodb.DB
	variant Variant
}

// New returns a hardwired UI for the variant.
func New(db *geodb.DB, v Variant) *UI { return &UI{db: db, variant: v} }

// SchemaWindow builds the schema window the variant's code dictates.
func (u *UI) SchemaWindow(info geodb.SchemaInfo) (*uikit.Widget, error) {
	switch u.variant {
	case VariantGeneric:
		return u.genericSchemaWindow(info), nil
	case VariantPoleManager:
		return u.poleManagerSchemaWindow(info), nil
	default:
		return nil, fmt.Errorf("hardwired: unknown variant %v", u.variant)
	}
}

func (u *UI) genericSchemaWindow(info geodb.SchemaInfo) *uikit.Widget {
	win := uikit.New(uikit.KindWindow, "schema:"+info.Name)
	win.SetProp("title", "Schema "+info.Name)
	win.SetProp("window_type", "Schema")
	win.SetProp("visible", "true")
	control := uikit.New(uikit.KindPanel, "control").Add(
		uikit.New(uikit.KindButton, "open").SetProp("label", "Open"),
		uikit.New(uikit.KindButton, "quit").SetProp("label", "Quit"),
	)
	list := uikit.New(uikit.KindList, "classes")
	list.Items = append(list.Items, info.Classes...)
	win.Add(control, uikit.New(uikit.KindPanel, "display").Add(list))
	return win
}

func (u *UI) poleManagerSchemaWindow(info geodb.SchemaInfo) *uikit.Widget {
	// Hand-coded equivalent of the Figure 6 schema clause: window exists
	// but is never shown.
	win := uikit.New(uikit.KindWindow, "schema:"+info.Name)
	win.SetProp("title", "Schema "+info.Name)
	win.SetProp("window_type", "Schema")
	win.SetProp("visible", "false")
	list := uikit.New(uikit.KindList, "classes")
	list.Items = append(list.Items, info.Classes...)
	win.Add(
		uikit.New(uikit.KindPanel, "control"),
		uikit.New(uikit.KindPanel, "display").Add(list),
	)
	return win
}

// ClassWindow builds the class window for the variant.
func (u *UI) ClassWindow(info geodb.ClassInfo, shapes []geodb.Shape) (*uikit.Widget, error) {
	switch u.variant {
	case VariantGeneric:
		return u.genericClassWindow(info, shapes), nil
	case VariantPoleManager:
		if info.Class.Name == "Pole" {
			return u.poleManagerClassWindow(info, shapes), nil
		}
		return u.genericClassWindow(info, shapes), nil
	default:
		return nil, fmt.Errorf("hardwired: unknown variant %v", u.variant)
	}
}

func (u *UI) genericClassWindow(info geodb.ClassInfo, shapes []geodb.Shape) *uikit.Widget {
	win := uikit.New(uikit.KindWindow, "classset:"+info.Class.Name)
	win.SetProp("title", "Class set "+info.Class.Name)
	win.SetProp("window_type", "Class set")
	win.SetProp("visible", "true")
	control := uikit.New(uikit.KindPanel, "control").Add(
		uikit.New(uikit.KindMenu, "operations").Add(
			uikit.New(uikit.KindMenuItem, "zoom").SetProp("label", "Zoom"),
			uikit.New(uikit.KindMenuItem, "select").SetProp("label", "Select"),
			uikit.New(uikit.KindMenuItem, "close").SetProp("label", "Close"),
		),
		uikit.New(uikit.KindButton, "class_widget").SetProp("label", info.Class.Name),
	)
	schemaList := uikit.New(uikit.KindList, "attributes")
	for _, a := range info.Attrs {
		schemaList.Items = append(schemaList.Items, fmt.Sprintf("%s: %s", a.Name, a.Type))
	}
	control.Add(schemaList)
	area := uikit.New(uikit.KindDrawingArea, "map")
	for _, sh := range shapes {
		area.Shapes = append(area.Shapes, uikit.Shape{
			OID:    uint64(sh.OID),
			Geom:   sh.Geom,
			Label:  fmt.Sprintf("%s-%d", strings.ToLower(info.Class.Name), sh.OID),
			Format: "pointFormat",
		})
	}
	win.Add(control, uikit.New(uikit.KindPanel, "display").Add(area))
	return win
}

func (u *UI) poleManagerClassWindow(info geodb.ClassInfo, shapes []geodb.Shape) *uikit.Widget {
	// Duplicated from genericClassWindow with the pole-manager deltas
	// hand-applied — the maintenance burden §1 describes.
	win := uikit.New(uikit.KindWindow, "classset:"+info.Class.Name)
	win.SetProp("title", "Class set "+info.Class.Name)
	win.SetProp("window_type", "Class set")
	win.SetProp("visible", "true")
	slider := uikit.New(uikit.KindSlider, "poleWidget").SetProp("class", info.Class.Name)
	control := uikit.New(uikit.KindPanel, "control").Add(
		uikit.New(uikit.KindMenu, "operations").Add(
			uikit.New(uikit.KindMenuItem, "zoom").SetProp("label", "Zoom"),
			uikit.New(uikit.KindMenuItem, "select").SetProp("label", "Select"),
			uikit.New(uikit.KindMenuItem, "close").SetProp("label", "Close"),
		),
		slider,
	)
	schemaList := uikit.New(uikit.KindList, "attributes")
	for _, a := range info.Attrs {
		schemaList.Items = append(schemaList.Items, fmt.Sprintf("%s: %s", a.Name, a.Type))
	}
	control.Add(schemaList)
	area := uikit.New(uikit.KindDrawingArea, "map")
	for _, sh := range shapes {
		area.Shapes = append(area.Shapes, uikit.Shape{
			OID:    uint64(sh.OID),
			Geom:   sh.Geom,
			Label:  fmt.Sprintf("pole-%d", sh.OID),
			Format: "pointFormat",
		})
	}
	win.Add(control, uikit.New(uikit.KindPanel, "display").Add(area))
	return win
}

// InstanceWindow builds the instance window for the variant.
func (u *UI) InstanceWindow(in geodb.Instance) (*uikit.Widget, error) {
	switch u.variant {
	case VariantGeneric:
		return u.genericInstanceWindow(in), nil
	case VariantPoleManager:
		if in.Class == "Pole" {
			return u.poleManagerInstanceWindow(in)
		}
		return u.genericInstanceWindow(in), nil
	default:
		return nil, fmt.Errorf("hardwired: unknown variant %v", u.variant)
	}
}

func (u *UI) genericInstanceWindow(in geodb.Instance) *uikit.Widget {
	win := uikit.New(uikit.KindWindow, fmt.Sprintf("instance:%s:%d", in.Class, in.OID))
	win.SetProp("title", fmt.Sprintf("Instance %s %d", in.Class, in.OID))
	win.SetProp("window_type", "Instance")
	win.SetProp("visible", "true")
	attrs := uikit.New(uikit.KindPanel, "attributes")
	for i, a := range in.Attrs {
		attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
			SetProp("label", a.Name).
			Add(uikit.New(uikit.KindText, "attr_value:"+a.Name).
				SetProp("value", in.Values[i].String())))
	}
	win.Add(uikit.New(uikit.KindPanel, "control"), attrs)
	return win
}

func (u *UI) poleManagerInstanceWindow(in geodb.Instance) (*uikit.Widget, error) {
	win := uikit.New(uikit.KindWindow, fmt.Sprintf("instance:%s:%d", in.Class, in.OID))
	win.SetProp("title", fmt.Sprintf("Instance %s %d", in.Class, in.OID))
	win.SetProp("window_type", "Instance")
	win.SetProp("visible", "true")
	attrs := uikit.New(uikit.KindPanel, "attributes")
	for i, a := range in.Attrs {
		switch a.Name {
		case "pole_location":
			continue // hand-coded suppression
		case "pole_composition":
			v := in.Values[i]
			parts := make([]string, 0, 3)
			if !v.IsNull() {
				for _, c := range v.Tuple {
					parts = append(parts, c.String())
				}
			}
			attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
				SetProp("label", a.Name).
				Add(uikit.New(uikit.KindText, "composed").
					SetProp("composed", "true").
					SetProp("value", strings.Join(parts, " "))))
		case "pole_supplier":
			name, err := u.db.CallMethod(in.OID, "get_supplier_name")
			if err != nil {
				return nil, fmt.Errorf("hardwired: supplier lookup: %w", err)
			}
			attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
				SetProp("label", a.Name).
				Add(uikit.New(uikit.KindText, "supplier").
					SetProp("value", name.Text)))
		default:
			attrs.Add(uikit.New(uikit.KindPanel, "attr:"+a.Name).
				SetProp("label", a.Name).
				Add(uikit.New(uikit.KindText, "attr_value:"+a.Name).
					SetProp("value", in.Values[i].String())))
		}
	}
	win.Add(uikit.New(uikit.KindPanel, "control"), attrs)
	return win, nil
}

// CostModel quantifies what supporting one more context costs each
// approach. Artifact counts come from this package's own structure: a
// hardwired variant touches one window function per window kind plus every
// dispatch switch, and requires a rebuild; a directive is a single
// declarative artifact installed at run time.
type CostModel struct {
	// ArtifactsTouched is the number of source artifacts written or
	// modified (functions / directive files).
	ArtifactsTouched int
	// DispatchEdits is the number of existing switch sites modified.
	DispatchEdits int
	// RebuildRequired says whether shipping the change needs a recompile
	// and redeploy.
	RebuildRequired bool
	// SpecBytes is the size of the change's source text.
	SpecBytes int
}

// HardwiredCost models adding one variant to this package: three new window
// functions plus three dispatch-switch edits, rebuild required. specBytes
// should be the size of the new window code (the benchmark measures this
// package's own pole-manager functions).
func HardwiredCost(specBytes int) CostModel {
	return CostModel{
		ArtifactsTouched: 3,
		DispatchEdits:    3,
		RebuildRequired:  true,
		SpecBytes:        specBytes,
	}
}

// DirectiveCost models adding one context via the customization language:
// one directive, no dispatch edits, no rebuild.
func DirectiveCost(specBytes int) CostModel {
	return CostModel{
		ArtifactsTouched: 1,
		DispatchEdits:    0,
		RebuildRequired:  false,
		SpecBytes:        specBytes,
	}
}
