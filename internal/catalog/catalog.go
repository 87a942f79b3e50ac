// Package catalog defines the object-oriented data model of the geographic
// DBMS: schemas, classes, attribute types and methods. It is the metadata
// layer that the paper's exploratory interaction mode browses (Get_Schema /
// Get_Class navigate exactly this structure) and that the customization
// language's semantic analysis validates directives against.
//
// The model reproduces what Figure 5 of the paper needs: integer, float and
// text attributes, nested tuple attributes, references to other classes
// (pole_supplier: Supplier), geometry attributes (pole_location: Geometry),
// bitmap attributes (pole_picture: bitmap), and named methods
// (get_supplier_name(Supplier)). Classes support single inheritance.
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Errors returned by catalog operations.
var (
	ErrDuplicate    = errors.New("catalog: duplicate definition")
	ErrUnknown      = errors.New("catalog: unknown name")
	ErrInvalidClass = errors.New("catalog: invalid class definition")
)

// Kind enumerates attribute type constructors.
type Kind uint8

// Attribute kinds.
const (
	KindInteger Kind = iota + 1
	KindFloat
	KindText
	KindBool
	KindTuple
	KindReference
	KindGeometry
	KindBitmap
)

// String returns the name the customization language and schema dumps use.
func (k Kind) String() string {
	switch k {
	case KindInteger:
		return "integer"
	case KindFloat:
		return "float"
	case KindText:
		return "text"
	case KindBool:
		return "bool"
	case KindTuple:
		return "tuple"
	case KindReference:
		return "reference"
	case KindGeometry:
		return "Geometry"
	case KindBitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind resolves a scalar kind name as written in schema scripts. Tuple
// and reference types are structural and built with TupleOf / RefTo instead.
func ParseKind(name string) (Kind, bool) {
	switch strings.ToLower(name) {
	case "integer", "int":
		return KindInteger, true
	case "float", "real":
		return KindFloat, true
	case "text", "string":
		return KindText, true
	case "bool", "boolean":
		return KindBool, true
	case "geometry":
		return KindGeometry, true
	case "bitmap":
		return KindBitmap, true
	default:
		return 0, false
	}
}

// AttrType describes the type of an attribute. Scalar kinds use only Kind;
// tuples carry their fields; references carry the target class name.
type AttrType struct {
	Kind     Kind
	Fields   []Field // KindTuple: ordered named components
	RefClass string  // KindReference: target class
}

// Scalar constructs a scalar attribute type.
func Scalar(k Kind) AttrType { return AttrType{Kind: k} }

// TupleOf constructs a tuple attribute type from ordered fields.
func TupleOf(fields ...Field) AttrType { return AttrType{Kind: KindTuple, Fields: fields} }

// RefTo constructs a reference attribute type to the named class.
func RefTo(class string) AttrType { return AttrType{Kind: KindReference, RefClass: class} }

// String renders the type as it appears in schema listings, e.g.
// "tuple(pole_material: text; pole_diameter: float)".
func (t AttrType) String() string {
	switch t.Kind {
	case KindTuple:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = fmt.Sprintf("%s: %s", f.Name, f.Type)
		}
		return "tuple(" + strings.Join(parts, "; ") + ")"
	case KindReference:
		return t.RefClass
	default:
		return t.Kind.String()
	}
}

// Equal reports structural type equality.
func (t AttrType) Equal(u AttrType) bool {
	if t.Kind != u.Kind || t.RefClass != u.RefClass || len(t.Fields) != len(u.Fields) {
		return false
	}
	for i := range t.Fields {
		if t.Fields[i].Name != u.Fields[i].Name || !t.Fields[i].Type.Equal(u.Fields[i].Type) {
			return false
		}
	}
	return true
}

// Field is a named, typed component: a class attribute or a tuple member.
type Field struct {
	Name string
	Type AttrType
}

// F is shorthand for Field construction.
func F(name string, t AttrType) Field { return Field{Name: name, Type: t} }

// Method is a named operation on a class. Implementations are registered at
// run time with the database (the catalog stores only signatures), mirroring
// how the paper treats callback and method code as outside the declarative
// model.
type Method struct {
	Name   string
	Params []string // parameter type or class names, informational
}

// Class describes an object class. Parent, when non-empty, names the
// superclass within the same schema; effective attributes are the parent's
// followed by the class's own.
type Class struct {
	Name    string
	Parent  string
	Attrs   []Field
	Methods []Method
}

// AttrNames returns the class's own attribute names in declaration order.
func (c *Class) AttrNames() []string {
	names := make([]string, len(c.Attrs))
	for i, a := range c.Attrs {
		names[i] = a.Name
	}
	return names
}

// Attr returns the class's own attribute by name.
func (c *Class) Attr(name string) (Field, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Field{}, false
}

// Method returns the class's own method by name.
func (c *Class) Method(name string) (Method, bool) {
	for _, m := range c.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// GeometryAttr returns the name of the first geometry-typed attribute, used
// by the interface builder to pick what a Class set window's drawing area
// displays. ok is false when the class has no spatial attribute.
func (c *Class) GeometryAttr() (string, bool) {
	for _, a := range c.Attrs {
		if a.Type.Kind == KindGeometry {
			return a.Name, true
		}
	}
	return "", false
}

// Schema is a named collection of classes.
type Schema struct {
	Name    string
	classes map[string]*Class
	order   []string // declaration order, for deterministic listings
	// effective holds each class's inherited and own attributes, parents
	// first. A class cannot change once DefineClass accepts it, so the list
	// is built there once.
	effective map[string][]Field
}

// NewSchema returns an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, classes: make(map[string]*Class), effective: make(map[string][]Field)}
}

// Classes returns class names in declaration order.
func (s *Schema) Classes() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Class returns the named class.
func (s *Schema) Class(name string) (*Class, error) {
	c, ok := s.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: class %q in schema %q", ErrUnknown, name, s.Name)
	}
	return c, nil
}

// HasClass reports whether the schema defines the class.
func (s *Schema) HasClass(name string) bool {
	_, ok := s.classes[name]
	return ok
}

// EffectiveAttrs returns the class's inherited and own attributes, parents
// first. The list is shared and capacity-clipped: callers may append to it
// (which copies) but must not assign its elements.
func (s *Schema) EffectiveAttrs(className string) ([]Field, error) {
	attrs, ok := s.effective[className]
	if !ok {
		return nil, fmt.Errorf("%w: class %q in schema %q", ErrUnknown, className, s.Name)
	}
	return attrs[:len(attrs):len(attrs)], nil
}

// EffectiveMethods returns inherited and own methods, parents first, with
// overrides (same name) collapsing to the most-derived definition.
func (s *Schema) EffectiveMethods(className string) ([]Method, error) {
	indexByName := map[string]int{}
	var out []Method
	var chain []*Class
	seen := map[string]bool{}
	for name := className; name != ""; {
		if seen[name] {
			return nil, fmt.Errorf("%w: inheritance cycle at %q", ErrInvalidClass, name)
		}
		seen[name] = true
		c, err := s.Class(name)
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
		name = c.Parent
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, m := range chain[i].Methods {
			if idx, ok := indexByName[m.Name]; ok {
				out[idx] = m // override
				continue
			}
			indexByName[m.Name] = len(out)
			out = append(out, m)
		}
	}
	return out, nil
}

// IsSubclassOf reports whether class sub inherits (transitively) from super,
// or is super itself.
func (s *Schema) IsSubclassOf(sub, super string) bool {
	seen := map[string]bool{}
	for name := sub; name != ""; {
		if name == super {
			return true
		}
		if seen[name] {
			return false
		}
		seen[name] = true
		c, ok := s.classes[name]
		if !ok {
			return false
		}
		name = c.Parent
	}
	return false
}

// Catalog holds every schema of a database. It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	schemas map[string]*Schema
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{schemas: make(map[string]*Schema)}
}

// DefineSchema creates a new empty schema.
func (c *Catalog) DefineSchema(name string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty schema name", ErrInvalidClass)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.schemas[name]; ok {
		return nil, fmt.Errorf("%w: schema %q", ErrDuplicate, name)
	}
	s := NewSchema(name)
	c.schemas[name] = s
	return s, nil
}

// Schema returns the named schema.
func (c *Catalog) Schema(name string) (*Schema, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.schemas[name]
	if !ok {
		return nil, fmt.Errorf("%w: schema %q", ErrUnknown, name)
	}
	return s, nil
}

// Schemas lists schema names in lexical order.
func (c *Catalog) Schemas() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.schemas))
	for name := range c.schemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefineClass validates and adds a class to the named schema. Validation
// covers: unique class name; non-empty, unique attribute names; parent
// existence; reference targets resolvable in the schema (the class itself
// counts, enabling self-references); tuple fields recursively valid.
func (c *Catalog) DefineClass(schemaName string, cls Class) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.schemas[schemaName]
	if !ok {
		return fmt.Errorf("%w: schema %q", ErrUnknown, schemaName)
	}
	if cls.Name == "" {
		return fmt.Errorf("%w: empty class name", ErrInvalidClass)
	}
	if _, ok := s.classes[cls.Name]; ok {
		return fmt.Errorf("%w: class %q in schema %q", ErrDuplicate, cls.Name, schemaName)
	}
	var inherited []Field
	if cls.Parent != "" {
		if _, ok := s.classes[cls.Parent]; !ok {
			return fmt.Errorf("%w: parent class %q of %q", ErrUnknown, cls.Parent, cls.Name)
		}
		inherited = s.effective[cls.Parent]
	}
	seen := map[string]bool{}
	// Inherited names must not be shadowed.
	for _, a := range inherited {
		seen[a.Name] = true
	}
	for _, a := range cls.Attrs {
		if a.Name == "" {
			return fmt.Errorf("%w: class %q has an unnamed attribute", ErrInvalidClass, cls.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: attribute %q duplicated in class %q", ErrInvalidClass, a.Name, cls.Name)
		}
		seen[a.Name] = true
		if err := validateType(s, cls.Name, a.Type); err != nil {
			return fmt.Errorf("attribute %q of class %q: %w", a.Name, cls.Name, err)
		}
	}
	mseen := map[string]bool{}
	for _, m := range cls.Methods {
		if m.Name == "" {
			return fmt.Errorf("%w: class %q has an unnamed method", ErrInvalidClass, cls.Name)
		}
		if mseen[m.Name] {
			return fmt.Errorf("%w: method %q duplicated in class %q", ErrInvalidClass, m.Name, cls.Name)
		}
		mseen[m.Name] = true
	}
	stored := cls // copy
	s.classes[cls.Name] = &stored
	s.effective[cls.Name] = slices.Concat(inherited, cls.Attrs)
	s.order = append(s.order, cls.Name)
	return nil
}

func validateType(s *Schema, selfClass string, t AttrType) error {
	switch t.Kind {
	case KindInteger, KindFloat, KindText, KindBool, KindGeometry, KindBitmap:
		return nil
	case KindTuple:
		if len(t.Fields) == 0 {
			return fmt.Errorf("%w: empty tuple", ErrInvalidClass)
		}
		names := map[string]bool{}
		for _, f := range t.Fields {
			if f.Name == "" {
				return fmt.Errorf("%w: unnamed tuple field", ErrInvalidClass)
			}
			if names[f.Name] {
				return fmt.Errorf("%w: duplicate tuple field %q", ErrInvalidClass, f.Name)
			}
			names[f.Name] = true
			if f.Type.Kind == KindTuple {
				return fmt.Errorf("%w: nested tuples are not supported", ErrInvalidClass)
			}
			if err := validateType(s, selfClass, f.Type); err != nil {
				return err
			}
		}
		return nil
	case KindReference:
		if t.RefClass == selfClass {
			return nil // self reference
		}
		if _, ok := s.classes[t.RefClass]; !ok {
			return fmt.Errorf("%w: reference target class %q", ErrUnknown, t.RefClass)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrInvalidClass, t.Kind)
	}
}

// DescribeClass renders a class in the style of the paper's Figure 5, e.g.
//
//	Class Pole {
//	  pole_type: integer;
//	  ...
//	  Methods: get_supplier_name(Supplier);
//	}
func (s *Schema) DescribeClass(name string) (string, error) {
	c, err := s.Class(name)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Class %s", c.Name)
	if c.Parent != "" {
		fmt.Fprintf(&b, " isa %s", c.Parent)
	}
	b.WriteString(" {\n")
	for _, a := range c.Attrs {
		fmt.Fprintf(&b, "  %s: %s;\n", a.Name, a.Type)
	}
	if len(c.Methods) > 0 {
		b.WriteString("  Methods:")
		for i, m := range c.Methods {
			if i > 0 {
				b.WriteString(";")
			}
			fmt.Fprintf(&b, " %s(%s)", m.Name, strings.Join(m.Params, ", "))
		}
		b.WriteString(";\n")
	}
	b.WriteString("}")
	return b.String(), nil
}
