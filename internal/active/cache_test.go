// Tests for the dispatch-decision cache (DESIGN.md §10): epoch
// invalidation on every rule mutation, the uncacheable paths (When
// predicates, extended contexts, SelectAll), and soundness under concurrent
// mutation (run with -race).
package active

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/spec"
)

func schemaProbe(ctx event.Context) event.Event {
	return event.Event{Kind: event.GetSchema, Schema: "phone_net", Ctx: ctx}
}

// dispatchAndTake runs one event through the engine and returns its
// selection.
func dispatchAndTake(t *testing.T, en *Engine, e event.Event) (spec.Customization, bool) {
	t.Helper()
	c, err := en.Select(e)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		return spec.Customization{}, false
	}
	return *c, true
}

func TestCacheHitSkipsScanButKeepsStats(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	en.AddRule(custRule("user", event.Context{User: "juliano", Application: "pole_manager"}, spec.DisplayNull))

	e := schemaProbe(event.Context{User: "juliano", Application: "pole_manager"})
	for i := 0; i < 5; i++ {
		cust, ok := dispatchAndTake(t, en, e)
		if !ok || cust.Origin != "user" {
			t.Fatalf("dispatch %d: origin = %q, ok = %v", i, cust.Origin, ok)
		}
	}

	cs := en.CacheStats()
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("cache hits/misses = %d/%d, want 4/1", cs.Hits, cs.Misses)
	}
	st := en.Stats()
	// Stats() semantics are unchanged by caching: every dispatch counts as
	// an event, fires the winner, and records the losing match suppressed —
	// only the match tests (Evaluated) are skipped on a hit.
	if st.Events != 5 || st.Selected != 5 || st.Fired != 5 || st.Suppressed != 5 {
		t.Fatalf("stats = %+v, want 5 events/selected/fired/suppressed", st)
	}
	if evalFirst := st.Evaluated; evalFirst == 0 || evalFirst > 2 {
		t.Fatalf("evaluated = %d, want the first scan's tests only", evalFirst)
	}
	if en.CachedPlans() != 1 {
		t.Fatalf("cached plans = %d", en.CachedPlans())
	}
}

func TestEveryRuleMutationBumpsEpoch(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, en *Engine)
	}{
		{"AddRule", func(t *testing.T, en *Engine) {
			if err := en.AddRule(custRule("late", event.Context{User: "maria"}, spec.DisplayNull)); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveRule", func(t *testing.T, en *Engine) {
			if err := en.RemoveRule("base"); err != nil {
				t.Fatal(err)
			}
		}},
		{"FailedAddDoesNot", func(t *testing.T, en *Engine) {
			// Control case: a rejected rule must NOT invalidate.
			if err := en.AddRule(custRule("base", event.Context{}, spec.DisplayNull)); err == nil {
				t.Fatal("duplicate accepted")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			en := NewEngine()
			if err := en.AddRule(custRule("base", event.Context{Application: "pole_manager"}, spec.DisplayDefault)); err != nil {
				t.Fatal(err)
			}
			before := en.Epoch()
			invBefore := en.CacheStats().Invalidations
			tc.mutate(t, en)
			bumped := en.Epoch() != before
			wantBump := tc.name != "FailedAddDoesNot"
			if bumped != wantBump {
				t.Fatalf("%s: epoch %d -> %d, want bump=%v", tc.name, before, en.Epoch(), wantBump)
			}
			if inv := en.CacheStats().Invalidations; (inv != invBefore) != wantBump {
				t.Fatalf("%s: invalidations %d -> %d", tc.name, invBefore, inv)
			}
		})
	}
}

func TestStaleWinnerNeverServedAfterAdd(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))

	e := schemaProbe(event.Context{User: "juliano", Application: "pole_manager"})
	if cust, _ := dispatchAndTake(t, en, e); cust.Origin != "generic" {
		t.Fatalf("origin = %q", cust.Origin)
	}
	// Install a more specific rule for the SAME event shape: the cached
	// "generic" plan is now stale and must not be served.
	en.AddRule(custRule("user", event.Context{User: "juliano", Application: "pole_manager"}, spec.DisplayNull))
	if cust, _ := dispatchAndTake(t, en, e); cust.Origin != "user" {
		t.Fatalf("stale winner served after AddRule: origin = %q", cust.Origin)
	}
}

func TestStaleWinnerNeverServedAfterRemove(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	en.AddRule(custRule("user", event.Context{User: "juliano", Application: "pole_manager"}, spec.DisplayNull))

	e := schemaProbe(event.Context{User: "juliano", Application: "pole_manager"})
	if cust, _ := dispatchAndTake(t, en, e); cust.Origin != "user" {
		t.Fatalf("origin = %q", cust.Origin)
	}
	if err := en.RemoveRule("user"); err != nil {
		t.Fatal(err)
	}
	if cust, _ := dispatchAndTake(t, en, e); cust.Origin != "generic" {
		t.Fatalf("removed winner still served: origin = %q", cust.Origin)
	}
	if err := en.RemoveRule("generic"); err != nil {
		t.Fatal(err)
	}
	if _, ok := dispatchAndTake(t, en, e); ok {
		t.Fatal("selection from an empty rule set")
	}
}

func TestWhenPredicateRuleIsUncacheable(t *testing.T) {
	en := NewEngine()
	r := custRule("conditional", event.Context{Application: "pole_manager"}, spec.DisplayNull)
	r.When = func(e event.Event) bool { return e.Name == "wanted" }
	if err := en.AddRule(r); err != nil {
		t.Fatal(err)
	}

	e := schemaProbe(event.Context{Application: "pole_manager"})
	e.Name = "wanted"
	for i := 0; i < 3; i++ {
		if cust, ok := dispatchAndTake(t, en, e); !ok || cust.Origin != "conditional" {
			t.Fatalf("dispatch %d: ok=%v origin=%q", i, ok, cust.Origin)
		}
	}
	// The predicate depends on a field outside the cache key, so every
	// dispatch must rescan: no plans stored, no hits, three uncacheables.
	cs := en.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 || cs.Uncacheable != 3 {
		t.Fatalf("cache stats = %+v, want 0 hits, 0 misses, 3 uncacheable", cs)
	}
	if en.CachedPlans() != 0 {
		t.Fatalf("cached plans = %d for a When-gated shape", en.CachedPlans())
	}
	// And the predicate keeps working: an event differing only in the
	// un-keyed field must not reuse any decision.
	e2 := schemaProbe(event.Context{Application: "pole_manager"})
	e2.Name = "unwanted"
	if _, ok := dispatchAndTake(t, en, e2); ok {
		t.Fatal("When predicate ignored")
	}
}

func TestExtendedContextBypassesCache(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	e := schemaProbe(event.Context{
		Application: "pole_manager",
		Extra:       map[string]string{"device": "tablet"},
	})
	for i := 0; i < 2; i++ {
		if _, ok := dispatchAndTake(t, en, e); !ok {
			t.Fatalf("dispatch %d: no selection", i)
		}
	}
	cs := en.CacheStats()
	if cs.Uncacheable != 2 || cs.Hits != 0 || en.CachedPlans() != 0 {
		t.Fatalf("extended context cached: %+v, plans=%d", cs, en.CachedPlans())
	}
}

func TestSelectAllBypassesCache(t *testing.T) {
	en := NewEngine()
	en.SelectAll = true
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	en.AddRule(custRule("user", event.Context{User: "juliano", Application: "pole_manager"}, spec.DisplayNull))

	e := schemaProbe(event.Context{User: "juliano", Application: "pole_manager"})
	for i := 0; i < 3; i++ {
		cust, ok := dispatchAndTake(t, en, e)
		if !ok || cust.Origin != "user" {
			t.Fatalf("dispatch %d: most specific must land last, got %q", i, cust.Origin)
		}
	}
	cs := en.CacheStats()
	if cs.Hits+cs.Misses != 0 || en.CachedPlans() != 0 {
		t.Fatalf("SelectAll touched the cache: %+v, plans=%d", cs, en.CachedPlans())
	}
	if fired := en.Stats().Fired; fired != 6 {
		t.Fatalf("fired = %d, want both rules × 3 dispatches", fired)
	}
}

func TestCacheDisabledEngineStoresNothing(t *testing.T) {
	en := NewEngine()
	en.CacheDecisions = false
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	e := schemaProbe(event.Context{Application: "pole_manager"})
	for i := 0; i < 3; i++ {
		if _, ok := dispatchAndTake(t, en, e); !ok {
			t.Fatal("no selection")
		}
	}
	cs := en.CacheStats()
	if cs.Hits+cs.Misses+cs.Uncacheable != 0 || en.CachedPlans() != 0 {
		t.Fatalf("disabled cache saw traffic: %+v, plans=%d", cs, en.CachedPlans())
	}
	// Evaluated grows on every dispatch: each one rescans.
	if ev := en.Stats().Evaluated; ev != 3 {
		t.Fatalf("evaluated = %d, want 3 (one test per dispatch)", ev)
	}
}

// TestCacheSoundUnderConcurrentMutation hammers dispatch from several
// goroutines, all in the one context the churned rules target, while rules
// are added and removed. Run under -race this proves the epoch protocol and
// the per-call reply: every dispatch returns the winner of some rule set
// the churn passed through (generic or a churn rule, never nothing), and a
// dispatch after the final mutation sees the final rule set.
func TestCacheSoundUnderConcurrentMutation(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))

	const dispatchers = 4
	e := schemaProbe(event.Context{User: "user1", Application: "pole_manager"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cust, err := en.Select(e)
				if err != nil {
					t.Error(err)
					return
				}
				if cust == nil || (cust.Origin != "generic" && !strings.HasPrefix(cust.Origin, "churn")) {
					t.Errorf("selection = %+v, want generic or a churn rule", cust)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("churn%d", i)
		if err := en.AddRule(custRule(name, event.Context{User: "user1", Application: "pole_manager"}, spec.DisplayNull)); err != nil {
			t.Fatal(err)
		}
		if err := en.RemoveRule(name); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// After the churn the only rule left is "generic": the cache must agree.
	for i := 0; i < 2; i++ {
		if cust, ok := dispatchAndTake(t, en, e); !ok || cust.Origin != "generic" {
			t.Fatalf("post-churn origin = %q ok=%v", cust.Origin, ok)
		}
	}
}
