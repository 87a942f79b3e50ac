package ui

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/spec"
	"repro/internal/uikit"
)

// This file implements the simulation interaction mode of §2.2 ("simulation,
// where users build scenarios to test their hypotheses"): a Scenario is a
// session-private workspace of hypothetical inserts, updates and deletes
// layered over the database. Windows opened while a scenario is active show
// the merged view; the database itself is untouched until Commit, which
// submits the whole workspace as one transaction — so active constraint
// rules guard every op, and the database accepts or refuses the hypothesis
// whole.

// Errors returned by scenario operations.
var (
	ErrNoScenario     = errors.New("ui: no active scenario")
	ErrScenarioActive = errors.New("ui: a scenario is already active")
)

// scenarioOIDBase keeps hypothetical OIDs far from real ones.
const scenarioOIDBase catalog.OID = 1 << 62

// scenarioCtx tags the transaction a committed scenario becomes (constraint
// rules match on it); CommitScenario grafts the interaction's trace identity
// onto it.
var scenarioCtx = event.Context{Application: "_scenario_commit"}

type scenarioObject struct {
	oid    catalog.OID
	schema string
	class  string
	values []catalog.Value
}

// Scenario is a simulation workspace.
type Scenario struct {
	Name string
	// next assigns hypothetical OIDs.
	next catalog.OID
	// added holds hypothetical new objects in creation order.
	added []scenarioObject
	// updated maps real OIDs to their hypothetical replacement values.
	updated map[catalog.OID][]catalog.Value
	// deleted marks real OIDs hypothetically removed.
	deleted map[catalog.OID]bool
}

// StartScenario begins a simulation workspace on the session.
func (s *Session) StartScenario(name string) error {
	if s.scenario != nil {
		return fmt.Errorf("%w: %q", ErrScenarioActive, s.scenario.Name)
	}
	s.scenario = &Scenario{
		Name:    name,
		next:    scenarioOIDBase,
		updated: map[catalog.OID][]catalog.Value{},
		deleted: map[catalog.OID]bool{},
	}
	s.tracef("scenario %q started", name)
	return nil
}

// Scenario returns the active scenario, if any.
func (s *Session) Scenario() (*Scenario, bool) {
	return s.scenario, s.scenario != nil
}

// DropScenario discards the workspace without touching the database.
func (s *Session) DropScenario() error {
	if s.scenario == nil {
		return ErrNoScenario
	}
	s.tracef("scenario %q dropped (%d adds, %d updates, %d deletes)",
		s.scenario.Name, len(s.scenario.added), len(s.scenario.updated), len(s.scenario.deleted))
	s.scenario = nil
	return nil
}

// ScenarioInsert adds a hypothetical instance. Values are in effective
// attribute order for the class (use ScenarioInsertMap for named values).
func (s *Session) ScenarioInsert(schema, class string, values []catalog.Value) (catalog.OID, error) {
	if s.scenario == nil {
		return 0, ErrNoScenario
	}
	s.scenario.next++
	oid := s.scenario.next
	s.scenario.added = append(s.scenario.added, scenarioObject{
		oid: oid, schema: schema, class: class, values: values,
	})
	s.tracef("scenario %q: hypothetical insert %s.%s as %d", s.scenario.Name, schema, class, oid)
	return oid, nil
}

// ScenarioUpdate replaces the values of a real or hypothetical instance
// within the scenario.
func (s *Session) ScenarioUpdate(oid catalog.OID, values []catalog.Value) error {
	if s.scenario == nil {
		return ErrNoScenario
	}
	if oid >= scenarioOIDBase {
		for i := range s.scenario.added {
			if s.scenario.added[i].oid == oid {
				s.scenario.added[i].values = values
				return nil
			}
		}
		return fmt.Errorf("%w: oid %d", geodb.ErrNoInstance, oid)
	}
	if s.scenario.deleted[oid] {
		return fmt.Errorf("%w: oid %d (deleted in the scenario)", geodb.ErrNoInstance, oid)
	}
	s.scenario.updated[oid] = values
	s.tracef("scenario %q: hypothetical update of %d", s.scenario.Name, oid)
	return nil
}

// ScenarioDelete removes an instance within the scenario.
func (s *Session) ScenarioDelete(oid catalog.OID) error {
	if s.scenario == nil {
		return ErrNoScenario
	}
	if oid >= scenarioOIDBase {
		for i := range s.scenario.added {
			if s.scenario.added[i].oid == oid {
				s.scenario.added = append(s.scenario.added[:i], s.scenario.added[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("%w: oid %d", geodb.ErrNoInstance, oid)
	}
	s.scenario.deleted[oid] = true
	delete(s.scenario.updated, oid)
	s.tracef("scenario %q: hypothetical delete of %d", s.scenario.Name, oid)
	return nil
}

// applyScenario merges the scenario's hypothetical geometries over a class
// reply, in the order the window draws them: real instances in OID order,
// then the class's hypothetical inserts in creation order. A deleted
// instance drops out, and an updated one takes the geometry of its new
// values, or drops out when they hold none. An update can also locate a
// real instance the reply left out because it had no geometry; the reply
// does not say which class such an instance belongs to, so the class's
// extension is selected when that happens.
func (s *Session) applyScenario(ctx event.Context, data ClassData) (ClassData, error) {
	sc := s.scenario
	attrs := data.Info.Attrs
	shapeOf := func(oid catalog.OID, values []catalog.Value) (geodb.Shape, bool) {
		if len(values) != len(attrs) {
			return geodb.Shape{}, false // not values of this class
		}
		return geodb.Instance{OID: oid, Attrs: attrs, Values: values}.Shape()
	}
	out := ClassData{Info: data.Info}
	drawn := make(map[catalog.OID]bool, len(data.Instances))
	for _, sh := range data.Instances {
		drawn[sh.OID] = true
		if sc.deleted[sh.OID] {
			continue
		}
		if values, ok := sc.updated[sh.OID]; ok {
			if sh, ok = shapeOf(sh.OID, values); !ok {
				continue
			}
		}
		out.Instances = append(out.Instances, sh)
	}
	var located []geodb.Shape
	for oid, values := range sc.updated {
		if sh, ok := shapeOf(oid, values); ok && !drawn[oid] {
			located = append(located, sh)
		}
	}
	if len(located) > 0 {
		extension, err := s.backend.SelectWhere(ctx, data.Info.Schema, data.Info.Class.Name, nil)
		if err != nil {
			return ClassData{}, err
		}
		member := make(map[catalog.OID]bool, len(extension))
		for _, in := range extension {
			member[in.OID] = true
		}
		for _, sh := range located {
			if member[sh.OID] {
				out.Instances = append(out.Instances, sh)
			}
		}
		slices.SortFunc(out.Instances, func(a, b geodb.Shape) int { return cmp.Compare(a.OID, b.OID) })
	}
	for _, add := range sc.added {
		if add.schema != data.Info.Schema || add.class != data.Info.Class.Name {
			continue
		}
		if sh, ok := shapeOf(add.oid, add.values); ok {
			out.Instances = append(out.Instances, sh)
		}
	}
	return out, nil
}

// CommitScenario submits the workspace through the backend's TxnMutator as
// one transaction under the scenario commit tag: deletes and then updates,
// each in OID order, then inserts in creation order. Constraint rules check
// every op against the transaction's earlier ones, so a hypothetical state
// violating topology fails here — which is precisely what simulation is
// for. On success the scenario clears; on any error neither the database
// nor the workspace changes, so the hypothesis can be corrected and
// committed again. A backend without transactions returns ErrNoTxn.
func (s *Session) CommitScenario() (rerr error) {
	if s.scenario == nil {
		return ErrNoScenario
	}
	m, ok := s.backend.(TxnMutator)
	if !ok {
		return ErrNoTxn
	}
	sp, _ := s.startInteraction("commit_scenario")
	sp.Set("scenario", s.scenario.Name)
	defer func() { sp.SetError(rerr).Finish() }()
	ctx := scenarioCtx
	ctx.Trace = sp.Context()
	sc := s.scenario
	ops := make([]TxnOp, 0, len(sc.deleted)+len(sc.updated)+len(sc.added))
	for _, oid := range sortedOIDs(sc.deleted) {
		ops = append(ops, TxnOp{Kind: TxnDelete, OID: oid})
	}
	for _, oid := range sortedOIDs(sc.updated) {
		ops = append(ops, TxnOp{Kind: TxnUpdate, OID: oid, Values: sc.updated[oid]})
	}
	for _, add := range sc.added {
		ops = append(ops, TxnOp{Kind: TxnInsert, Schema: add.schema, Class: add.class, Values: add.values})
	}
	if _, err := m.CommitTxn(ctx, ops); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	s.tracef("scenario %q committed (%d mutations)", sc.Name, len(ops))
	s.scenario = nil
	return nil
}

// sortedOIDs returns the map's keys in ascending order.
func sortedOIDs[V any](m map[catalog.OID]V) []catalog.OID {
	oids := make([]catalog.OID, 0, len(m))
	for oid := range m {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	return oids
}

// OpenClassSimulated is OpenClass with the active scenario merged in; the
// resulting window is tagged with the scenario name so renderings make the
// hypothetical state visible.
func (s *Session) OpenClassSimulated(schema, class string) (_ *uikit.Widget, rerr error) {
	if !s.connected {
		return nil, ErrNotConnected
	}
	if s.scenario == nil {
		return nil, ErrNoScenario
	}
	s.Interactions++
	sp, ctx := s.startInteraction("open_class_simulated")
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	data, cust, err := s.backend.GetClass(ctx, schema, class)
	if err != nil {
		return nil, err
	}
	merged, err := s.applyScenario(ctx, data)
	if err != nil {
		return nil, err
	}
	var cc *spec.ClassCust
	if cust != nil && cust.Level == spec.LevelClass {
		cc = &cust.Class
	}
	win, err := s.builder.BuildClassWindow(merged.Info, merged.Instances, cc)
	if err != nil {
		return nil, err
	}
	win.Name = "scenario:" + s.scenario.Name + ":" + class
	win.SetProp("title", fmt.Sprintf("Scenario %s — %s", s.scenario.Name, class))
	win.SetProp("scenario", s.scenario.Name)
	win.SetProp("schema", schema)
	s.addWindow(win, "schema:"+schema)
	s.tracef("scenario window %q built (%d shapes incl. hypothetical)",
		win.Name, len(merged.Instances))
	return win, nil
}
