// Command simulation demonstrates the simulation interaction mode of §2.2
// ("users build scenarios to test their hypotheses") together with the
// view-refresh rule family: a planner sketches a network build-out in a
// scenario, inspects the hypothetical map without touching the database,
// commits it as one constraint-guarded transaction, and a second session's
// open window is refreshed by an active rule.
package main

import (
	"fmt"
	"log"

	gisui "repro"
	"repro/internal/catalog"
	"repro/internal/geom"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	lib, err := workload.StandardLibrary()
	if err != nil {
		log.Fatal(err)
	}
	sys := gisui.MustOpen(gisui.Config{Library: lib})
	defer sys.Close()
	net, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
		Seed: 21, ZonesPerSide: 1, PolesPerZone: 5})
	if err != nil {
		log.Fatal(err)
	}
	// Constraint: poles must stand inside a zone — scenario commits are
	// guarded by it.
	if err := sys.AddConstraint(topo.Constraint{
		Name: "pole-in-zone", Schema: workload.SchemaName,
		Class: "Pole", With: "Zone", Relation: geom.Inside, Mode: topo.Require,
	}); err != nil {
		log.Fatal(err)
	}

	// An observer session keeps a Pole window open, watching for updates.
	observer := sys.NewSession(gisui.Context("observer", "", "pole_manager"))
	mustOK(observer.Connect())
	_, err = observer.OpenSchema(workload.SchemaName)
	mustOK(err)
	_, err = observer.OpenClass(workload.SchemaName, "Pole")
	mustOK(err)
	unwatch, err := observer.WatchUpdates(sys.Engine)
	mustOK(err)
	defer unwatch()

	// The planner builds a scenario.
	planner := sys.NewSession(gisui.Context("planner", "planners", "pole_manager"))
	mustOK(planner.Connect())
	mustOK(planner.StartScenario("north-expansion"))

	poleValues := func(x, y float64) []catalog.Value {
		v, err := sys.DB.ValuesFromMap(workload.SchemaName, "Pole", map[string]catalog.Value{
			"pole_type":     catalog.IntVal(1),
			"pole_supplier": catalog.RefVal(net.Suppliers[0]),
			"pole_location": catalog.GeomVal(geom.Pt(x, y)),
		})
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	// Two hypothetical poles inside the zone, one pole moved.
	planner.ScenarioInsert(workload.SchemaName, "Pole", poleValues(800, 900))
	planner.ScenarioInsert(workload.SchemaName, "Pole", poleValues(900, 950))
	mustOK(planner.ScenarioUpdate(net.Poles[0], poleValues(50, 50)))

	win, err := planner.OpenClassSimulated(workload.SchemaName, "Pole")
	mustOK(err)
	fmt.Printf("scenario window %q shows %d poles (database still has %d)\n",
		win.Name, len(win.Find("map").Shapes), sys.DB.Count(workload.SchemaName, "Pole"))

	// A hypothetical pole OUTSIDE the zone: the window shows it, but the
	// topological rule vetoes the commit. The scenario is one transaction,
	// so the database refuses it whole: no pole is inserted or moved, and
	// the workspace stays as it was for correction.
	bad, _ := planner.ScenarioInsert(workload.SchemaName, "Pole", poleValues(5000, 5000))
	if err := planner.CommitScenario(); err != nil {
		fmt.Printf("commit vetoed as expected: %v\n", err)
	}
	fmt.Printf("after the veto the database still has %d poles\n", sys.DB.Count(workload.SchemaName, "Pole"))
	// Remove the offending pole and commit for real.
	mustOK(planner.ScenarioDelete(bad))
	mustOK(planner.CommitScenario())
	fmt.Printf("commit ok: database now has %d poles\n", sys.DB.Count(workload.SchemaName, "Pole"))

	// The observer's window went stale through the view-refresh rule.
	fmt.Printf("observer stale windows: %v\n", observer.Stale())
	n, err := observer.RefreshAll()
	mustOK(err)
	obsWin, _ := observer.Window("classset:Pole")
	fmt.Printf("observer refreshed %d window(s); map now shows %d poles\n",
		n, len(obsWin.Find("map").Shapes))
}

func mustOK(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
