// Command topoguard demonstrates the companion use of the active mechanism
// the paper reports in §5: maintaining binary topological constraints on
// spatial updates ([11]). The same rule engine that customizes windows here
// vetoes inserts and updates that would violate topology, and certifies
// pre-existing data.
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
	sys := gisui.MustOpen(gisui.Config{})
	defer sys.Close()
	net, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
		Seed: 9, ZonesPerSide: 2, PolesPerZone: 10})
	if err != nil {
		log.Fatal(err)
	}
	ctx := gisui.Context("op", "", "maintenance")

	// Constraint 1: every pole must lie inside some zone.
	inZone := topo.Constraint{
		Name: "pole-in-zone", Schema: workload.SchemaName,
		Class: "Pole", With: "Zone", Relation: geom.Inside, Mode: topo.Require,
	}
	// Constraint 2: no two zones may overlap.
	zonesDisjoint := topo.Constraint{
		Name: "zones-no-overlap", Schema: workload.SchemaName,
		Class: "Zone", With: "Zone", Relation: geom.Overlap, Mode: topo.Forbid,
	}
	for _, c := range []topo.Constraint{inZone, zonesDisjoint} {
		if err := sys.AddConstraint(c); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("installed constraint %q (%s %v %s, %s)\n",
			c.Name, c.Class, c.Relation, c.With, c.Mode)
	}

	// Certification of the generated data.
	for _, c := range []topo.Constraint{inZone, zonesDisjoint} {
		violations, err := sys.Certify(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certify %q: %d violations\n", c.Name, len(violations))
	}

	// A legal insert inside zone-0-0.
	oid, err := sys.DB.InsertMap(ctx, workload.SchemaName, "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(500, 500)),
		"pole_supplier": catalog.RefVal(net.Suppliers[0]),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninsert pole at (500,500): OK (oid %d)\n", oid)

	// An insert outside every zone is vetoed by the rule engine.
	if _, err := sys.DB.InsertMap(ctx, workload.SchemaName, "Pole", map[string]catalog.Value{
		"pole_location": catalog.GeomVal(geom.Pt(-900, -900)),
	}); err != nil {
		fmt.Printf("insert pole at (-900,-900): vetoed — %v\n", err)
	}

	// Moving a pole out of its zone is vetoed; moving it within is fine.
	if err := sys.DB.UpdateAttr(ctx, oid, "pole_location",
		catalog.GeomVal(geom.Pt(-1, -1))); err != nil {
		fmt.Printf("move pole to (-1,-1):      vetoed — %v\n", err)
	}
	if err := sys.DB.UpdateAttr(ctx, oid, "pole_location",
		catalog.GeomVal(geom.Pt(250, 250))); err != nil {
		log.Fatal(err)
	}
	fmt.Println("move pole to (250,250):    OK")

	// An overlapping zone is vetoed.
	if _, err := sys.DB.InsertMap(ctx, workload.SchemaName, "Zone", map[string]catalog.Value{
		"zone_name": catalog.TextVal("rogue"),
		"region":    catalog.GeomVal(geom.R(500, 500, 1500, 1500).AsPolygon()),
	}); err != nil {
		fmt.Printf("insert overlapping zone:   vetoed — %v\n", err)
	}

	fmt.Printf("\nguard stats: %d checks, %d vetoes\n", sys.Guard.Checks.Load(), sys.Guard.Vetoes.Load())
}
