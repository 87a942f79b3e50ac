package ui

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geodb"
	"repro/internal/geom"
)

// TestSessionRandomizedOperations drives sessions with long random streams
// of operations — valid and invalid — asserting the dispatcher never
// panics and never corrupts the window hierarchy. This is the robustness
// net under all interaction modes.
func TestSessionRandomizedOperations(t *testing.T) {
	w := newWorld(t, true)
	rng := rand.New(rand.NewSource(2024))
	classes := []string{"Supplier", "Pole", "Duct", "Ghost"}

	for sessionN := 0; sessionN < 8; sessionN++ {
		ctx := mariaCtx()
		if sessionN%2 == 0 {
			ctx = julianoCtx()
		}
		s := NewSession(w.backend, w.builder, ctx)
		if err := s.Connect(); err != nil {
			t.Fatal(err)
		}
		unwatch, err := s.WatchUpdates(w.engine)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(12) {
			case 0:
				s.OpenSchema("phone_net")
			case 1:
				s.OpenSchema("ghost_schema") // must error, not panic
			case 2:
				s.OpenClass("phone_net", classes[rng.Intn(len(classes))])
			case 3:
				oid := catalog.OID(rng.Intn(20))
				s.OpenInstance(oid)
			case 4:
				if names := s.Windows(); len(names) > 0 {
					s.CloseWindow(names[rng.Intn(len(names))])
				}
			case 5:
				s.Interact("schema:phone_net", "classes", "select",
					classes[rng.Intn(len(classes))])
			case 6:
				s.Analyze("phone_net", "Pole", []geodb.Filter{
					{Attr: "pole_type", Op: "ge", Value: catalog.IntVal(int64(rng.Intn(3)))},
				})
			case 7:
				// Scenario operations in arbitrary order.
				switch rng.Intn(4) {
				case 0:
					s.StartScenario(fmt.Sprintf("sc%d", step))
				case 1:
					values, _ := w.db.ValuesFromMap("phone_net", "Pole", map[string]catalog.Value{
						"pole_location": catalog.GeomVal(geom.Pt(rng.Float64()*100, rng.Float64()*100)),
					})
					s.ScenarioInsert("phone_net", "Pole", values)
				case 2:
					s.OpenClassSimulated("phone_net", "Pole")
				case 3:
					s.DropScenario()
				}
			case 8:
				// Concurrent-style DB mutation to exercise staleness.
				w.db.InsertMap(ctx, "phone_net", "Duct", map[string]catalog.Value{
					"duct_path": catalog.GeomVal(geom.LineString{
						geom.Pt(rng.Float64()*10, 0), geom.Pt(rng.Float64()*10, 5)}),
				})
			case 9:
				s.RefreshAll()
			case 10:
				s.Screen()
				s.Explain()
			case 11:
				s.Interact("nowhere", "nothing", "never", nil)
			}
			// Invariant: the window map and the order list agree.
			for _, name := range s.Windows() {
				if _, err := s.Window(name); err != nil {
					t.Fatalf("session %d step %d: listed window %q unreadable: %v",
						sessionN, step, name, err)
				}
			}
		}
		unwatch()
	}
}
