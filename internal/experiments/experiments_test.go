package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegistrySmoke runs every registered experiment at quick scale. The
// registry is the reproduction's public surface — `gisbench -exp all` must
// never discover a broken experiment before CI does.
func TestRegistrySmoke(t *testing.T) {
	reg := Registry()
	if len(reg) < 16 {
		t.Fatalf("registry has %d experiments, expected the full F1..F7 + B1..B9 set", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		e := e
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v is missing metadata or a Run function", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			if err := e.Run(&out, true); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if strings.TrimSpace(out.String()) == "" {
				t.Fatalf("%s produced no report output", e.ID)
			}
		})
	}
}

// TestLookup covers the registry's only other entry point.
func TestLookup(t *testing.T) {
	if _, ok := Lookup("F6"); !ok {
		t.Fatal("F6 missing from registry")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}
