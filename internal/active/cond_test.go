// Tests for declared condition expressions on rules (Rule.Cond): dispatch
// enforcement, decision-cache interaction (static conds stay cacheable,
// oid/name conds do not), and the analyzable surface CheckSet exposes.
package active

import (
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/spec"
)

func TestAddRuleRejectsBadCond(t *testing.T) {
	en := NewEngine()
	r := custRule("bad", event.Context{User: "u"}, spec.DisplayDefault)
	r.Cond = `zoom >`
	if err := en.AddRule(r); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad cond accepted: %v", err)
	}
}

func TestCondEnforcedAtDispatch(t *testing.T) {
	en := NewEngine()
	r := custRule("zoomed", event.Context{Application: "pole_manager"}, spec.DisplayHierarchy)
	r.Cond = `zoom > 10`
	if err := en.AddRule(r); err != nil {
		t.Fatal(err)
	}
	probe := func(zoom string) bool {
		ctx := event.Context{Application: "pole_manager"}
		if zoom != "" {
			ctx.Extra = map[string]string{"zoom": zoom}
		}
		_, ok := dispatchAndTake(t, en, schemaProbe(ctx))
		return ok
	}
	if !probe("12") {
		t.Error("zoom=12 should satisfy the condition")
	}
	if probe("5") {
		t.Error("zoom=5 should fail the condition")
	}
	if probe("") {
		t.Error("absent zoom should fail the condition")
	}
}

// TestStaticCondStaysCacheable: a condition over cache-key dimensions is
// folded into the memoized plan — repeat dispatches hit the cache and still
// honor it.
func TestStaticCondStaysCacheable(t *testing.T) {
	en := NewEngine()
	r := custRule("annOnly", event.Context{Application: "pole_manager"}, spec.DisplayNull)
	r.Cond = `user == "ann"`
	if err := en.AddRule(r); err != nil {
		t.Fatal(err)
	}
	ann := schemaProbe(event.Context{User: "ann", Application: "pole_manager"})
	bob := schemaProbe(event.Context{User: "bob", Application: "pole_manager"})
	for i := 0; i < 3; i++ {
		if _, ok := dispatchAndTake(t, en, ann); !ok {
			t.Fatalf("dispatch %d: ann should match", i)
		}
		if _, ok := dispatchAndTake(t, en, bob); ok {
			t.Fatalf("dispatch %d: bob should not match", i)
		}
	}
	cs := en.CacheStats()
	if cs.Uncacheable != 0 {
		t.Fatalf("static cond should not bypass the cache: %+v", cs)
	}
	if cs.Hits != 4 || cs.Misses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 4/2", cs.Hits, cs.Misses)
	}
}

// TestDynamicCondBypassesCache: a condition reading oid is not a function
// of the cache key, so matching shapes must take the uncacheable path —
// and the condition must still be enforced per event.
func TestDynamicCondBypassesCache(t *testing.T) {
	en := NewEngine()
	r := custRule("bigOids", event.Context{Application: "pole_manager"}, spec.DisplayDefault)
	r.Cond = `oid >= 100`
	r.On = event.GetValue
	if err := en.AddRule(r); err != nil {
		t.Fatal(err)
	}
	probe := func(oid catalog.OID) bool {
		e := event.Event{
			Kind: event.GetValue, Schema: "phone_net", OID: oid,
			Ctx: event.Context{Application: "pole_manager"},
		}
		_, ok := dispatchAndTake(t, en, e)
		return ok
	}
	// Same event shape, different OIDs: a cached plan would get this wrong.
	if !probe(150) {
		t.Error("oid=150 should match")
	}
	if probe(50) {
		t.Error("oid=50 should not match")
	}
	if !probe(100) {
		t.Error("oid=100 should match")
	}
	cs := en.CacheStats()
	if cs.Uncacheable != 3 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("dynamic cond must bypass the cache: %+v", cs)
	}
}

func TestCondVisibleToCheckSet(t *testing.T) {
	en := NewEngine()
	a := custRule("a", event.Context{Application: "p"}, spec.DisplayDefault)
	a.Cond = `zoom > 10`
	b := custRule("b", event.Context{Application: "p"}, spec.DisplayNull)
	b.Cond = `zoom <= 10`
	if err := en.AddRule(a); err != nil {
		t.Fatal(err)
	}
	if err := en.AddRule(b); err != nil {
		t.Fatal(err)
	}
	// Shape-identical rules, but the conditions are provably disjoint: the
	// analyzer must stay silent.
	if fs := en.CheckSet(); len(fs) != 0 {
		t.Fatalf("disjoint conds flagged: %+v", fs)
	}
}
