package geodb

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Primitive latency histograms (§ Observability in DESIGN.md). Each series is
// one pre-resolved handle so the query path pays only the stopwatch reads and
// a few atomic adds.
var (
	mGetSchemaSeconds = obs.Default().Histogram(`gis_geodb_query_seconds{op="get_schema"}`, obs.LatencyBuckets)
	mGetClassSeconds  = obs.Default().Histogram(`gis_geodb_query_seconds{op="get_class"}`, obs.LatencyBuckets)
	mGetValueSeconds  = obs.Default().Histogram(`gis_geodb_query_seconds{op="get_value"}`, obs.LatencyBuckets)
	mSelectSeconds    = obs.Default().Histogram(`gis_geodb_query_seconds{op="select"}`, obs.LatencyBuckets)
)

// This file implements the retrieval side of the database: the three
// exploratory primitives of §3.3 (Get_Schema, Get_Class, Get_Value), each of
// which emits its database event before returning data, plus the predicate
// and spatial queries that the analysis interaction mode and the Class set
// window's map display are built from.

// SchemaInfo is the result of Get_Schema: the schema's class inventory.
type SchemaInfo struct {
	Name string
	// Classes lists class names in declaration order.
	Classes []string
	// Parents maps each class to its superclass name ("" for roots); the
	// Schema window's hierarchy display mode renders this.
	Parents map[string]string
}

// ClassInfo is the result of Get_Class: the class metadata. The extension
// itself is read separately (Shapes, ShapesInWindow, Select).
type ClassInfo struct {
	Schema string
	Class  catalog.Class
	// Attrs are the effective (inherited + own) attributes.
	Attrs []catalog.Field
	// GeometryAttr names the spatial attribute shown in the presentation
	// area, or "" when the class has none.
	GeometryAttr string
}

// GetSchema implements the Get_Schema primitive: it emits the event (which
// triggers schema presentation rules) and returns the schema inventory.
func (db *DB) GetSchema(ctx event.Context, schema string) (_ SchemaInfo, rerr error) {
	sw := obs.Start(mGetSchemaSeconds)
	defer sw.Stop()
	sp := db.tracer.StartSpan("geodb.get_schema", ctx.Trace)
	sp.Set("schema", schema)
	defer func() { sp.SetError(rerr).Finish() }()
	s, err := db.cat.Schema(schema)
	if err != nil {
		return SchemaInfo{}, err
	}
	if err := db.bus.Emit(event.Event{Kind: event.GetSchema, Schema: schema, Ctx: ctx}); err != nil {
		return SchemaInfo{}, err
	}
	info := SchemaInfo{Name: schema, Classes: s.Classes(), Parents: map[string]string{}}
	for _, name := range info.Classes {
		c, err := s.Class(name)
		if err != nil {
			return SchemaInfo{}, err
		}
		info.Parents[name] = c.Parent
	}
	return info, nil
}

// GetClass implements the Get_Class primitive.
func (db *DB) GetClass(ctx event.Context, schema, class string) (_ ClassInfo, rerr error) {
	sw := obs.Start(mGetClassSeconds)
	defer sw.Stop()
	sp := db.tracer.StartSpan("geodb.get_class", ctx.Trace)
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	s, err := db.cat.Schema(schema)
	if err != nil {
		return ClassInfo{}, err
	}
	c, err := s.Class(class)
	if err != nil {
		return ClassInfo{}, err
	}
	if err := db.bus.Emit(event.Event{Kind: event.GetClass, Schema: schema, Class: class, Ctx: ctx}); err != nil {
		return ClassInfo{}, err
	}
	attrs, err := s.EffectiveAttrs(class)
	if err != nil {
		return ClassInfo{}, err
	}
	info := ClassInfo{Schema: schema, Class: *c, Attrs: attrs}
	for _, a := range attrs {
		if a.Type.Kind == catalog.KindGeometry {
			info.GeometryAttr = a.Name
			break
		}
	}
	return info, nil
}

// GetValue implements the Get_Value primitive: it emits the event and
// materializes the instance.
func (db *DB) GetValue(ctx event.Context, oid catalog.OID) (_ Instance, rerr error) {
	sw := obs.Start(mGetValueSeconds)
	defer sw.Stop()
	sp := db.tracer.StartSpan("geodb.get_value", ctx.Trace)
	sp.Setf("oid", "%d", oid)
	defer func() { sp.SetError(rerr).Finish() }()
	in, err := db.lookup(oid)
	if err != nil {
		return Instance{}, err
	}
	e := event.Event{Kind: event.GetValue, Schema: in.Schema, Class: in.Class, OID: oid, Ctx: ctx}
	if err := db.bus.Emit(e); err != nil {
		return Instance{}, err
	}
	return in, nil
}

// Connect announces a session attach (the paper's example: "when the user
// connects to the application, an event Get_Schema is generated" — the
// Connect event precedes it and lets rules prepare session state).
func (db *DB) Connect(ctx event.Context) error {
	return db.bus.Emit(event.Event{Kind: event.Connect, Schema: db.name, Ctx: ctx})
}

// Predicate filters instances in Select.
type Predicate func(Instance) bool

// Select materializes every instance of the class satisfying pred, in OID
// (= insertion) order. A nil pred selects the whole extension. This is the
// analysis-mode query path; it does not emit exploratory events. The scan
// runs over an internal snapshot: it sees one consistent committed state —
// no dirty or non-repeatable reads — while writers commit freely mid-scan
// (the read lock is only ever held per record, see Snapshot.Select).
func (db *DB) Select(schema, class string, pred Predicate) ([]Instance, error) {
	sw := obs.Start(mSelectSeconds)
	defer sw.Stop()
	snap := db.BeginSnapshot()
	defer snap.Close()
	return snap.Select(schema, class, pred)
}

// Count returns the extension size of a class.
func (db *DB) Count(schema, class string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.byClass[classKey{schema, class}])
}

// Window returns the OIDs of class instances whose geometry bounds intersect
// the window rectangle — the query behind every map display. It uses the
// R-tree unless UseSpatialIndex is false (B6 ablates this), in which case it
// scans the extension.
func (db *DB) Window(schema, class string, window geom.Rect) ([]catalog.OID, error) {
	if db.UseSpatialIndex {
		db.mu.RLock()
		tree, ok := db.spatial[classKey{schema, class}]
		var ids []uint64
		if ok {
			ids = tree.Search(window, nil)
		}
		db.mu.RUnlock()
		oids := make([]catalog.OID, len(ids))
		for i, id := range ids {
			oids[i] = catalog.OID(id)
		}
		return oids, nil
	}
	return db.windowScan(schema, class, window)
}

// windowScan is the sequential-scan baseline for B6.
func (db *DB) windowScan(schema, class string, window geom.Rect) ([]catalog.OID, error) {
	instances, err := db.Select(schema, class, nil)
	if err != nil {
		return nil, err
	}
	var oids []catalog.OID
	for _, in := range instances {
		if g, ok := in.Geometry(); ok && g.Bounds().Intersects(window) {
			oids = append(oids, in.OID)
		}
	}
	return oids, nil
}

// Shapes returns the shape of every instance of the class that has a
// geometry, in OID order: what a Class set window draws. Like Select it
// reads one committed state through a snapshot, taking the read lock per
// record, but it decodes only each record's envelope and geometry.
func (db *DB) Shapes(schema, class string) ([]Shape, error) {
	snap := db.BeginSnapshot()
	defer snap.Close()
	return snap.shapes(schema, class)
}

// ShapesInWindow returns the shapes of the class instances whose geometry
// bounds intersect the viewport, in OID order — what a zoomed or panned map
// draws without touching the rest of the extension. The index search and
// each read take the read lock separately, so an instance deleted between
// them is left out rather than failing the whole window. It opens no
// snapshot, so writers keep no undo versions for it.
func (db *DB) ShapesInWindow(schema, class string, window geom.Rect) ([]Shape, error) {
	oids, err := db.Window(schema, class, window)
	if err != nil {
		return nil, err
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	out := make([]Shape, 0, len(oids))
	for _, oid := range oids {
		g, err := db.shape(oid)
		if errors.Is(err, ErrNoInstance) {
			continue // deleted since the index search
		}
		if err != nil {
			return nil, err
		}
		if g != nil {
			out = append(out, Shape{OID: oid, Geom: g})
		}
	}
	return out, nil
}

// Nearest returns the k instances of the class nearest to p, closest first.
func (db *DB) Nearest(schema, class string, p geom.Point, k int) ([]catalog.OID, error) {
	db.mu.RLock()
	tree, ok := db.spatial[classKey{schema, class}]
	var ids []uint64
	if ok {
		ids = tree.Nearest(p, k)
	}
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: class %s.%s has no spatial data", catalog.ErrUnknown, schema, class)
	}
	oids := make([]catalog.OID, len(ids))
	for i, id := range ids {
		oids[i] = catalog.OID(id)
	}
	return oids, nil
}

// Stats summarizes the database for dashboards and the gisbench report.
type Stats struct {
	Schemas   int
	Instances int
	Pages     uint32
	PoolHit   float64
}

// Stats returns a snapshot.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	n := len(db.instances)
	db.mu.RUnlock()
	ps := db.heap.Pool().Stats()
	return Stats{
		Schemas:   len(db.cat.Schemas()),
		Instances: n,
		Pages:     db.heap.Pool().NumPages(),
		PoolHit:   ps.HitRatio(),
	}
}
