// Package topo maintains binary topological constraints through the active
// database mechanism, reproducing the companion prototype the paper reports
// in §5 ("a prototype has been developed to associate a gis with an active
// dbms, and it has been used for maintaining topological constraints in the
// gis", citing Medeiros & Cilia [11]).
//
// A constraint relates two classes through an Egenhofer relation and is
// compiled into constraint-family rules on the Pre_Insert and Pre_Update
// events of the constrained class: a violating mutation is vetoed before it
// reaches storage. The package also provides a certification scan (after
// Laurini & Milleret-Raffort's database certification) that audits existing
// data against a constraint set.
package topo

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
)

// Errors returned by the constraint subsystem.
var (
	ErrViolation     = errors.New("topo: topological constraint violated")
	ErrBadConstraint = errors.New("topo: invalid constraint")
)

// Mode says whether the relation must hold or must not hold.
type Mode uint8

// Constraint modes.
const (
	// Forbid vetoes a mutation when ANY instance of the related class
	// stands in the relation with the new geometry (e.g. no two poles may
	// be equal; no building may overlap a street).
	Forbid Mode = iota + 1
	// Require vetoes a mutation when NO instance of the related class
	// stands in the relation (e.g. every duct must be inside some zone).
	Require
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Forbid:
		return "forbid"
	case Require:
		return "require"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Constraint is a binary topological constraint: instances of Class (the
// guarded class) against instances of With (the related class, possibly the
// same) in the given schema.
type Constraint struct {
	// Name identifies the constraint in rules and violation messages.
	Name string
	// Schema and Class scope the guarded mutations.
	Schema string
	Class  string
	// With is the related class whose extension is tested.
	With string
	// Relation is the Egenhofer relation tested between the mutated
	// geometry and each related instance.
	Relation geom.Relation
	// Mode selects forbid/require semantics.
	Mode Mode
}

// Validate checks the constraint against the catalog: both classes must
// exist and carry geometry attributes.
func (c Constraint) Validate(cat *catalog.Catalog) error {
	if c.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadConstraint)
	}
	if c.Mode != Forbid && c.Mode != Require {
		return fmt.Errorf("%w: %q has no mode", ErrBadConstraint, c.Name)
	}
	if c.Relation == 0 {
		return fmt.Errorf("%w: %q has no relation", ErrBadConstraint, c.Name)
	}
	s, err := cat.Schema(c.Schema)
	if err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadConstraint, c.Name, err)
	}
	for _, class := range []string{c.Class, c.With} {
		cl, err := s.Class(class)
		if err != nil {
			return fmt.Errorf("%w: %q: %v", ErrBadConstraint, c.Name, err)
		}
		if _, ok := cl.GeometryAttr(); !ok {
			return fmt.Errorf("%w: %q: class %s has no geometry attribute",
				ErrBadConstraint, c.Name, class)
		}
	}
	return nil
}

// Guard installs constraints as rules on an engine bound to a database. It
// owns the relation-evaluation machinery shared by the rules and the
// certification scan.
type Guard struct {
	db *geodb.DB
	// Checks counts constraint evaluations; Vetoes counts violations
	// blocked (B7 reporting). Rules run on every committer's goroutine.
	Checks, Vetoes atomic.Uint64
}

// NewGuard returns a guard over the database.
func NewGuard(db *geodb.DB) *Guard { return &Guard{db: db} }

// Install validates the constraint and adds its rules (one per guarded
// event) to the engine.
func (g *Guard) Install(engine *active.Engine, c Constraint) error {
	if err := c.Validate(g.db.Catalog()); err != nil {
		return err
	}
	for _, kind := range []event.Kind{event.PreInsert, event.PreUpdate} {
		kind := kind
		rule := active.Rule{
			Name:   fmt.Sprintf("topo:%s:%s", c.Name, kind),
			Family: active.FamilyConstraint,
			On:     kind,
			Schema: c.Schema,
			Class:  c.Class,
			React: func(e event.Event, _ active.Emitter) error {
				return g.check(c, e)
			},
		}
		if err := engine.AddRule(rule); err != nil {
			return err
		}
	}
	return nil
}

// check evaluates the constraint for a mutation event against the view the
// event carries: the state the mutation's transaction will commit against.
func (g *Guard) check(c Constraint, e event.Event) error {
	g.Checks.Add(1)
	newGeom, ok := eventGeometry(e)
	if !ok {
		return nil // no geometry in the mutation: nothing to constrain
	}
	offenders, err := related(e.View, c, newGeom, e.OID)
	if err != nil {
		return err
	}
	switch c.Mode {
	case Forbid:
		if len(offenders) > 0 {
			g.Vetoes.Add(1)
			return fmt.Errorf("%w: %s — %s %v %s (instance %v)",
				ErrViolation, c.Name, c.Class, c.Relation, c.With, offenders[0])
		}
	case Require:
		if len(offenders) == 0 {
			g.Vetoes.Add(1)
			return fmt.Errorf("%w: %s — %s must be %v some %s",
				ErrViolation, c.Name, c.Class, c.Relation, c.With)
		}
	}
	return nil
}

// wholePlane is the window of a Disjoint check: disjointness cannot be
// window-pruned.
var wholePlane = geom.Rect{Min: geom.Pt(math.Inf(-1), math.Inf(-1)), Max: geom.Pt(math.Inf(1), math.Inf(1))}

// related returns OIDs of instances of c.With that view shows standing in
// c.Relation with the geometry, excluding self.
func related(view event.View, c Constraint, gm geom.Geometry, self catalog.OID) ([]catalog.OID, error) {
	window := gm.Bounds()
	if c.Relation == geom.Disjoint {
		window = wholePlane
	}
	var out []catalog.OID
	err := view.Geometries(c.Schema, c.With, window, func(oid catalog.OID, other geom.Geometry) {
		if oid != self && RelateGeometries(gm, other) == c.Relation {
			out = append(out, oid)
		}
	})
	return out, err
}

// eventGeometry extracts the first geometry from the mutation's new values
// (update/insert); delete guards are not installed since removing an object
// cannot violate a binary relation that Forbid/Require express here.
func eventGeometry(e event.Event) (geom.Geometry, bool) {
	for _, v := range e.New {
		if v.Kind == catalog.KindGeometry && v.Geom != nil {
			return v.Geom, true
		}
	}
	return nil, false
}

// RelateGeometries classifies the topological relation between two
// geometries of any supported kinds. Region-region pairs use the exact
// Egenhofer classification; point and line operands use the natural
// restriction of the relation vocabulary (documented per case).
func RelateGeometries(a, b geom.Geometry) geom.Relation {
	if a == nil || b == nil || a.Empty() || b.Empty() {
		return geom.Disjoint
	}
	pa, aIsRegion := asPolygon(a)
	pb, bIsRegion := asPolygon(b)
	switch {
	case aIsRegion && bIsRegion:
		return geom.Relate(pa, pb)
	case aIsRegion != bIsRegion:
		// Point or line vs region.
		region, other := pa, b
		flip := false
		if bIsRegion {
			region, other = pb, a
			flip = true
		}
		rel := nonRegionVsRegion(other, region)
		if flip {
			return rel
		}
		return rel.Converse()
	default:
		// Neither is a region: points and lines.
		switch ga := a.(type) {
		case geom.Point:
			if gb, ok := b.(geom.Point); ok {
				if ga.Equal(gb) {
					return geom.EqualRel
				}
				return geom.Disjoint
			}
			if geom.Intersects(a, b) {
				return geom.Meet // a point touching a line
			}
			return geom.Disjoint
		default:
			if gb, ok := b.(geom.Point); ok {
				if geom.Intersects(a, gb) {
					return geom.Meet
				}
				return geom.Disjoint
			}
			// Line vs line: crossing or touching collapses to Overlap,
			// the only interior-sharing relation lines support here.
			if geom.Intersects(a, b) {
				return geom.Overlap
			}
			return geom.Disjoint
		}
	}
}

func asPolygon(g geom.Geometry) (geom.Polygon, bool) {
	switch gg := g.(type) {
	case geom.Polygon:
		return gg, true
	case geom.Rect:
		return gg.AsPolygon(), true
	default:
		return geom.Polygon{}, false
	}
}

// nonRegionVsRegion classifies a point or line against a region.
func nonRegionVsRegion(g geom.Geometry, region geom.Polygon) geom.Relation {
	switch gg := g.(type) {
	case geom.Point:
		switch geom.PointInPolygon(gg, region) {
		case 1:
			return geom.Inside
		case 0:
			return geom.Meet
		default:
			return geom.Disjoint
		}
	default:
		if geom.Contains(region, g) {
			return geom.Inside
		}
		if geom.Intersects(g, region) {
			return geom.Overlap
		}
		return geom.Disjoint
	}
}

// Violation is one certification finding.
type Violation struct {
	Constraint string
	OID        catalog.OID
	Detail     string
}

// Certify audits the existing extension of the constraint's guarded class,
// returning every violation — the "topological reorganization of
// inconsistent geographical databases: a step towards their certification"
// use case of [8].
func (g *Guard) Certify(c Constraint) ([]Violation, error) {
	if err := c.Validate(g.db.Catalog()); err != nil {
		return nil, err
	}
	instances, err := g.db.Select(c.Schema, c.Class, nil)
	if err != nil {
		return nil, err
	}
	view := g.db.Begin(event.Context{}) // an empty transaction views committed state
	var out []Violation
	for _, in := range instances {
		gm, ok := in.Geometry()
		if !ok {
			continue
		}
		g.Checks.Add(1)
		offenders, err := related(view, c, gm, in.OID)
		if err != nil {
			return nil, err
		}
		switch c.Mode {
		case Forbid:
			if len(offenders) > 0 {
				out = append(out, Violation{
					Constraint: c.Name,
					OID:        in.OID,
					Detail:     fmt.Sprintf("%v %s with %v", c.Relation, c.With, offenders),
				})
			}
		case Require:
			if len(offenders) == 0 {
				out = append(out, Violation{
					Constraint: c.Name,
					OID:        in.OID,
					Detail:     fmt.Sprintf("not %v any %s", c.Relation, c.With),
				})
			}
		}
	}
	return out, nil
}
