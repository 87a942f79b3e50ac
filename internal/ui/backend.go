// Package ui implements the GIS user interface layer of §3.5: the
// dispatcher that owns the Schema → Class set → Instance window hierarchy,
// interprets user interactions as interface events (callbacks) plus database
// events, hands (data, presentation) pairs to the generic interface builder,
// and supports the exploratory, analysis and explanation interaction modes.
//
// The architecture follows the paper's weak-integration choice: the UI talks
// to the geographic DBMS through the Backend interface. DirectBackend binds
// it in-process (strong integration, the baseline B8 compares against);
// package client binds it over the wire protocol of package proto.
package ui

import (
	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/spec"
)

// ClassData is the payload a Get_Class interaction needs: the class
// metadata plus what the presentation area draws of the extension.
type ClassData struct {
	Info geodb.ClassInfo
	// Instances holds one shape per instance of the extension (or of the
	// requested window of it) that has a geometry, in OID order. Attribute
	// values stay in the database: Get_Value reads them per instance.
	Instances []geodb.Shape
}

// Backend is the UI's view of the geographic DBMS. Every retrieval returns
// the (data, presentation) pair of §3.3: the query result plus the
// customization the active mechanism selected for the calling context (nil
// when the generic default applies).
type Backend interface {
	// Connect announces a session attach.
	Connect(ctx event.Context) error
	// GetSchema performs the Get_Schema primitive.
	GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error)
	// GetClass performs the Get_Class primitive and reads the shapes of
	// the extension.
	GetClass(ctx event.Context, schema, class string) (ClassData, *spec.Customization, error)
	// GetClassWindowed is GetClass restricted to a viewport: only
	// instances whose geometry intersects the window are read (the map
	// pan/zoom path; served by the spatial index).
	GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ClassData, *spec.Customization, error)
	// GetValue performs the Get_Value primitive.
	GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error)
	// SelectWhere runs an analysis-mode filtered query (no events, no
	// customization — §5 notes only queries of the exploratory mode are
	// customized).
	SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error)
	// CallMethod invokes a database method (used by the builder to resolve
	// method-sourced attribute panels).
	CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error)
}

// DirectBackend is the strong-integration binding: the UI and the DBMS share
// a process. Each retrieval points its context's Selected slot at a local
// value before calling the primitive; the engine, subscribed to the DB's
// bus, fills the slot while the primitive emits its event, so concurrent
// calls of one context each get their own selection.
type DirectBackend struct {
	DB *geodb.DB
	// Engine is the active mechanism subscribed to DB's bus.
	Engine *active.Engine
}

// NewDirectBackend wires a database and its active engine (subscribing the
// engine to the database bus).
func NewDirectBackend(db *geodb.DB, engine *active.Engine) *DirectBackend {
	db.Bus().Subscribe(engine)
	return &DirectBackend{DB: db, Engine: engine}
}

// Connect implements Backend.
func (b *DirectBackend) Connect(ctx event.Context) error {
	return b.DB.Connect(ctx)
}

// GetSchema implements Backend.
func (b *DirectBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	var sel spec.Customization
	ctx.Selected = &sel
	info, err := b.DB.GetSchema(ctx, schema)
	if err != nil {
		return geodb.SchemaInfo{}, nil, err
	}
	return info, selected(&sel), nil
}

// GetClass implements Backend.
func (b *DirectBackend) GetClass(ctx event.Context, schema, class string) (ClassData, *spec.Customization, error) {
	var sel spec.Customization
	ctx.Selected = &sel
	info, err := b.DB.GetClass(ctx, schema, class)
	if err != nil {
		return ClassData{}, nil, err
	}
	shapes, err := b.DB.Shapes(schema, class)
	if err != nil {
		return ClassData{}, nil, err
	}
	return ClassData{Info: info, Instances: shapes}, selected(&sel), nil
}

// GetClassWindowed implements Backend.
func (b *DirectBackend) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ClassData, *spec.Customization, error) {
	var sel spec.Customization
	ctx.Selected = &sel
	info, err := b.DB.GetClass(ctx, schema, class)
	if err != nil {
		return ClassData{}, nil, err
	}
	shapes, err := b.DB.ShapesInWindow(schema, class, window)
	if err != nil {
		return ClassData{}, nil, err
	}
	return ClassData{Info: info, Instances: shapes}, selected(&sel), nil
}

// GetValue implements Backend.
func (b *DirectBackend) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	var sel spec.Customization
	ctx.Selected = &sel
	in, err := b.DB.GetValue(ctx, oid)
	if err != nil {
		return geodb.Instance{}, nil, err
	}
	return in, selected(&sel), nil
}

// selected returns a retrieval's reply slot, or nil when no customization
// rule filled it (the engine always sets Origin on a selection).
func selected(slot *spec.Customization) *spec.Customization {
	if slot.Origin == "" {
		return nil
	}
	return slot
}

// SelectWhere implements Backend.
func (b *DirectBackend) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	return b.DB.SelectWhere(schema, class, filters)
}

// CallMethod implements Backend.
func (b *DirectBackend) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	return b.DB.CallMethod(oid, method, args...)
}
