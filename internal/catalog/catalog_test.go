package catalog

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
)

// poleClass reproduces the paper's Figure 5 class definition.
func poleClass() Class {
	return Class{
		Name: "Pole",
		Attrs: []Field{
			F("pole_type", Scalar(KindInteger)),
			F("pole_composition", TupleOf(
				F("pole_material", Scalar(KindText)),
				F("pole_diameter", Scalar(KindFloat)),
				F("pole_height", Scalar(KindFloat)),
			)),
			F("pole_supplier", RefTo("Supplier")),
			F("pole_location", Scalar(KindGeometry)),
			F("pole_picture", Scalar(KindBitmap)),
			F("pole_historic", Scalar(KindText)),
		},
		Methods: []Method{{Name: "get_supplier_name", Params: []string{"Supplier"}}},
	}
}

func newPhoneNet(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.DefineSchema("phone_net"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass("phone_net", Class{
		Name:  "Supplier",
		Attrs: []Field{F("name", Scalar(KindText)), F("city", Scalar(KindText))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass("phone_net", poleClass()); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefineSchemaAndClass(t *testing.T) {
	c := newPhoneNet(t)
	s, err := c.Schema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Classes(); len(got) != 2 || got[0] != "Supplier" || got[1] != "Pole" {
		t.Fatalf("classes = %v", got)
	}
	pole, err := s.Class("Pole")
	if err != nil {
		t.Fatal(err)
	}
	if len(pole.Attrs) != 6 {
		t.Fatalf("pole attrs = %d", len(pole.Attrs))
	}
	if attr, ok := pole.Attr("pole_location"); !ok || attr.Type.Kind != KindGeometry {
		t.Fatal("pole_location should be Geometry")
	}
	if ga, ok := pole.GeometryAttr(); !ok || ga != "pole_location" {
		t.Fatalf("geometry attr = %q, %v", ga, ok)
	}
	if _, ok := pole.Method("get_supplier_name"); !ok {
		t.Fatal("method missing")
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	c := newPhoneNet(t)
	if _, err := c.DefineSchema("phone_net"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate schema: %v", err)
	}
	if err := c.DefineClass("phone_net", Class{Name: "Pole"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate class: %v", err)
	}
	if err := c.DefineClass("nowhere", Class{Name: "X"}); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown schema: %v", err)
	}
	if _, err := c.Schema("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown schema lookup: %v", err)
	}
	s, _ := c.Schema("phone_net")
	if _, err := s.Class("Duct"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestClassValidation(t *testing.T) {
	c := New()
	c.DefineSchema("s")
	cases := []Class{
		{Name: ""},
		{Name: "A", Attrs: []Field{F("", Scalar(KindText))}},
		{Name: "B", Attrs: []Field{F("x", Scalar(KindText)), F("x", Scalar(KindInteger))}},
		{Name: "C", Attrs: []Field{F("r", RefTo("Missing"))}},
		{Name: "D", Attrs: []Field{F("t", TupleOf())}},
		{Name: "E", Attrs: []Field{F("t", TupleOf(F("a", Scalar(KindText)), F("a", Scalar(KindText))))}},
		{Name: "G", Attrs: []Field{F("t", TupleOf(F("a", TupleOf(F("b", Scalar(KindText))))))}},
		{Name: "H", Parent: "Missing"},
		{Name: "I", Methods: []Method{{Name: ""}}},
		{Name: "J", Methods: []Method{{Name: "m"}, {Name: "m"}}},
	}
	for i, cls := range cases {
		if err := c.DefineClass("s", cls); err == nil {
			t.Errorf("case %d (%s): invalid class accepted", i, cls.Name)
		}
	}
	// Self reference is legal.
	if err := c.DefineClass("s", Class{Name: "Node", Attrs: []Field{F("next", RefTo("Node"))}}); err != nil {
		t.Fatalf("self reference: %v", err)
	}
}

func TestInheritance(t *testing.T) {
	c := New()
	c.DefineSchema("net")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.DefineClass("net", Class{
		Name:    "NetworkElement",
		Attrs:   []Field{F("id_code", Scalar(KindInteger)), F("location", Scalar(KindGeometry))},
		Methods: []Method{{Name: "describe"}},
	}))
	must(c.DefineClass("net", Class{
		Name:    "Pole",
		Parent:  "NetworkElement",
		Attrs:   []Field{F("height", Scalar(KindFloat))},
		Methods: []Method{{Name: "describe"}, {Name: "paint"}},
	}))
	s, _ := c.Schema("net")
	attrs, err := s.EffectiveAttrs("Pole")
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 3 || attrs[0].Name != "id_code" || attrs[2].Name != "height" {
		t.Fatalf("effective attrs = %v", attrs)
	}
	methods, err := s.EffectiveMethods("Pole")
	if err != nil {
		t.Fatal(err)
	}
	if len(methods) != 2 {
		t.Fatalf("effective methods = %v", methods)
	}
	if !s.IsSubclassOf("Pole", "NetworkElement") {
		t.Fatal("Pole should be a NetworkElement")
	}
	if s.IsSubclassOf("NetworkElement", "Pole") {
		t.Fatal("upward subclass test must fail")
	}
	if !s.IsSubclassOf("Pole", "Pole") {
		t.Fatal("class is subclass of itself")
	}
	// Shadowing an inherited attribute is rejected.
	err = c.DefineClass("net", Class{
		Name:   "BadPole",
		Parent: "NetworkElement",
		Attrs:  []Field{F("id_code", Scalar(KindText))},
	})
	if !errors.Is(err, ErrInvalidClass) {
		t.Fatalf("shadowing: %v", err)
	}
}

func TestDescribeClassFigure5(t *testing.T) {
	c := newPhoneNet(t)
	s, _ := c.Schema("phone_net")
	desc, err := s.DescribeClass("Pole")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Class Pole {",
		"pole_type: integer;",
		"pole_composition: tuple(pole_material: text; pole_diameter: float; pole_height: float);",
		"pole_supplier: Supplier;",
		"pole_location: Geometry;",
		"pole_picture: bitmap;",
		"pole_historic: text;",
		"Methods: get_supplier_name(Supplier);",
	} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeClass missing %q in:\n%s", want, desc)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"integer": KindInteger, "int": KindInteger,
		"float": KindFloat, "TEXT": KindText, "bool": KindBool,
		"geometry": KindGeometry, "bitmap": KindBitmap,
	} {
		if k, ok := ParseKind(name); !ok || k != want {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, ok)
		}
	}
	if _, ok := ParseKind("tuple"); ok {
		t.Fatal("tuple is structural, not parseable")
	}
}

func TestAttrTypeEqualAndString(t *testing.T) {
	tup := TupleOf(F("a", Scalar(KindText)), F("b", Scalar(KindFloat)))
	if !tup.Equal(TupleOf(F("a", Scalar(KindText)), F("b", Scalar(KindFloat)))) {
		t.Fatal("equal tuples")
	}
	if tup.Equal(TupleOf(F("a", Scalar(KindText)))) {
		t.Fatal("different arity")
	}
	if tup.Equal(TupleOf(F("x", Scalar(KindText)), F("b", Scalar(KindFloat)))) {
		t.Fatal("different field name")
	}
	if got := tup.String(); got != "tuple(a: text; b: float)" {
		t.Fatalf("tuple string = %q", got)
	}
	if got := RefTo("Supplier").String(); got != "Supplier" {
		t.Fatalf("ref string = %q", got)
	}
}

func TestValueStringAndEqual(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{IntVal(42), "42"},
		{FloatVal(2.5), "2.5"},
		{TextVal("hi"), "hi"},
		{BoolVal(true), "true"},
		{TupleVal(TextVal("wood"), FloatVal(0.3)), "(wood, 0.3)"},
		{RefVal(7), "ref:7"},
		{RefVal(NilOID), "ref:nil"},
		{GeomVal(geom.Pt(1, 2)), "POINT (1 2)"},
		{BitmapVal([]byte{1, 2, 3}), "bitmap[3B]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
		if !c.v.Equal(c.v) {
			t.Errorf("value %q not equal to itself", c.want)
		}
	}
	if IntVal(1).Equal(FloatVal(1)) {
		t.Fatal("cross-kind equality")
	}
	if TupleVal(IntVal(1)).Equal(TupleVal(IntVal(2))) {
		t.Fatal("tuple inequality")
	}
	if !GeomVal(nil).Equal(GeomVal(nil)) {
		t.Fatal("nil geometries equal")
	}
	if GeomVal(nil).Equal(GeomVal(geom.Pt(0, 0))) {
		t.Fatal("nil vs point")
	}
}

func TestConforms(t *testing.T) {
	tup := TupleOf(F("m", Scalar(KindText)), F("d", Scalar(KindFloat)))
	if err := TupleVal(TextVal("wood"), FloatVal(1)).Conforms(tup); err != nil {
		t.Fatal(err)
	}
	if err := TupleVal(TextVal("wood")).Conforms(tup); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("arity mismatch: %v", err)
	}
	if err := TupleVal(IntVal(1), FloatVal(1)).Conforms(tup); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("component mismatch: %v", err)
	}
	if err := Null.Conforms(Scalar(KindGeometry)); err != nil {
		t.Fatalf("null conforms to anything: %v", err)
	}
	if err := TextVal("x").Conforms(Scalar(KindInteger)); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("kind mismatch: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	values := []Value{
		IntVal(-7),
		FloatVal(3.25),
		TextVal("concrete"),
		BoolVal(true),
		TupleVal(TextVal("wood"), FloatVal(0.3), FloatVal(9.5)),
		RefVal(99),
		GeomVal(geom.Pt(10, 20)),
		GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(5, 5)}),
		GeomVal(geom.Polygon{
			Outer: geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4)},
			Holes: []geom.Ring{{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(2, 2)}},
		}),
		GeomVal(geom.MultiPoint{geom.Pt(1, 1), geom.Pt(2, 2)}),
		GeomVal(geom.R(0, 0, 3, 3)),
		GeomVal(nil),
		BitmapVal([]byte{0xde, 0xad, 0xbe, 0xef}),
		Null,
	}
	data, err := EncodeRecord(values)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(values) {
		t.Fatalf("decoded %d values, want %d", len(back), len(values))
	}
	for i := range values {
		if !values[i].Equal(back[i]) {
			t.Errorf("value %d: %v != %v", i, values[i], back[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // huge count
		{1, 99},        // unknown kind tag
		{1, 1},         // integer with no payload... varint of empty
		{2, 1, 2, 3},   // two attrs declared, one present
		{1, 3, 5, 'a'}, // text length 5, one byte
		{1, 7, 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}, // multipoint of 2^60 points
	}
	for i, b := range bad {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Trailing bytes rejected.
	data, _ := EncodeRecord([]Value{IntVal(1)})
	if _, err := DecodeRecord(append(data, 0)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDecodeTruncatedEverywhere(t *testing.T) {
	values := []Value{
		IntVal(123456), TextVal("hello"), GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(1, 1)}),
		TupleVal(BoolVal(true), FloatVal(2.5)), BitmapVal([]byte{1, 2, 3}),
	}
	data, err := EncodeRecord(values)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeRecord(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

func TestCatalogSchemasSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.DefineSchema(n); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Schemas()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Fatalf("schemas = %v", got)
	}
}

func TestEffectiveAttrsComputedOnce(t *testing.T) {
	c := newPhoneNet(t)
	s, err := c.Schema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.EffectiveAttrs("Pole"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("EffectiveAttrs allocated %.0f times per call, want 0", allocs)
	}
	attrs, err := s.EffectiveAttrs("Supplier")
	if err != nil {
		t.Fatal(err)
	}
	_ = append(attrs, F("intruder", Scalar(KindText)))
	again, err := s.EffectiveAttrs("Supplier")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].Name != "name" || again[1].Name != "city" {
		t.Fatalf("an append changed the catalog: %v", again)
	}
	// A restored catalog computes the lists too.
	restored := New()
	if err := restored.Restore(c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	rs, err := restored.Schema("phone_net")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rs.EffectiveAttrs("Pole"); err != nil || len(got) != 6 {
		t.Fatalf("restored Pole attrs = %v, %v", got, err)
	}
	if _, err := s.EffectiveAttrs("Nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown class: %v", err)
	}
}
