package active

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/spec"
)

func custRule(name string, ctx event.Context, display spec.SchemaDisplay) Rule {
	return Rule{
		Name:    name,
		Family:  FamilyCustomization,
		On:      event.GetSchema,
		Context: ctx,
		Customize: func(e event.Event) (spec.Customization, error) {
			return spec.Customization{
				Level:  spec.LevelSchema,
				Schema: spec.SchemaCust{Schema: e.Schema, Display: display},
			}, nil
		},
	}
}

func TestAddRuleValidation(t *testing.T) {
	en := NewEngine()
	bad := []Rule{
		{},
		{Name: "x"},
		{Name: "x", On: event.GetSchema},
		{Name: "x", On: event.GetSchema, Family: FamilyCustomization},                                      // no action
		{Name: "x", On: event.GetSchema, Family: FamilyReaction},                                           // no action
		{Name: "x", On: event.GetSchema, Family: Family(99), Customize: nilCust, React: nil},               // bad family
		{Name: "x", On: event.GetSchema, Family: FamilyCustomization, Customize: nilCust, React: nilReact}, // both
		{Name: "x", On: event.GetSchema, Family: FamilyReaction, Customize: nilCust, React: nilReact},      // both
	}
	for i, r := range bad {
		if err := en.AddRule(r); !errors.Is(err, ErrBadRule) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	good := custRule("r1", event.Context{}, spec.DisplayDefault)
	if err := en.AddRule(good); err != nil {
		t.Fatal(err)
	}
	if err := en.AddRule(good); !errors.Is(err, ErrDuplicateRule) {
		t.Fatalf("duplicate: %v", err)
	}
	if en.RuleCount() != 1 {
		t.Fatalf("count = %d", en.RuleCount())
	}
}

func nilCust(event.Event) (spec.Customization, error) { return spec.Customization{}, nil }
func nilReact(event.Event, Emitter) error             { return nil }

func TestRemoveRule(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("r1", event.Context{}, spec.DisplayDefault))
	en.AddRule(custRule("r2", event.Context{}, spec.DisplayDefault))
	if err := en.RemoveRule("r1"); err != nil {
		t.Fatal(err)
	}
	if err := en.RemoveRule("r1"); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("double remove: %v", err)
	}
	if got := en.Rules(); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("rules = %v", got)
	}
	// Removed rule never fires.
	e := event.Event{Kind: event.GetSchema, Schema: "s"}
	if c, ok := dispatchAndTake(t, en, e); !ok || c.Origin != "r2" {
		t.Fatalf("customization = %+v, %v", c, ok)
	}
}

func TestMostSpecificRuleWins(t *testing.T) {
	en := NewEngine()
	// Paper §3.3: "a rule for generic users, for a particular category of
	// users, and for a particular user within the category" — most
	// restrictive context wins.
	en.AddRule(custRule("generic", event.Context{Application: "pole_manager"}, spec.DisplayDefault))
	en.AddRule(custRule("category", event.Context{Category: "planners", Application: "pole_manager"}, spec.DisplayHierarchy))
	en.AddRule(custRule("user", event.Context{User: "juliano", Application: "pole_manager"}, spec.DisplayNull))

	cases := []struct {
		ctx  event.Context
		want spec.SchemaDisplay
		rule string
	}{
		{event.Context{User: "maria", Application: "pole_manager"}, spec.DisplayDefault, "generic"},
		{event.Context{User: "maria", Category: "planners", Application: "pole_manager"}, spec.DisplayHierarchy, "category"},
		{event.Context{User: "juliano", Category: "planners", Application: "pole_manager"}, spec.DisplayNull, "user"},
	}
	for i, c := range cases {
		e := event.Event{Kind: event.GetSchema, Schema: "phone_net", Ctx: c.ctx}
		got, ok := dispatchAndTake(t, en, e)
		if !ok {
			t.Fatalf("case %d: no customization", i)
		}
		if got.Schema.Display != c.want || got.Origin != c.rule {
			t.Errorf("case %d: display=%v origin=%q, want %v %q",
				i, got.Schema.Display, got.Origin, c.want, c.rule)
		}
	}
	st := en.Stats()
	if st.Selected != 3 {
		t.Fatalf("selected = %d", st.Selected)
	}
	if st.Suppressed == 0 {
		t.Fatal("losing rules must be counted suppressed")
	}
}

func TestNoMatchNoCustomization(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("r", event.Context{User: "juliano"}, spec.DisplayNull))
	e := event.Event{Kind: event.GetSchema, Ctx: event.Context{User: "maria"}}
	if _, ok := dispatchAndTake(t, en, e); ok {
		t.Fatal("customization for non-matching context")
	}
}

func TestScopeFiltering(t *testing.T) {
	en := NewEngine()
	r := custRule("pole-only", event.Context{}, spec.DisplayNull)
	r.On = event.GetClass
	r.Schema = "phone_net"
	r.Class = "Pole"
	en.AddRule(r)
	hit := event.Event{Kind: event.GetClass, Schema: "phone_net", Class: "Pole"}
	miss := event.Event{Kind: event.GetClass, Schema: "phone_net", Class: "Duct"}
	if _, ok := dispatchAndTake(t, en, hit); !ok {
		t.Fatal("scoped rule should fire for its class")
	}
	if _, ok := dispatchAndTake(t, en, miss); ok {
		t.Fatal("scoped rule fired for wrong class")
	}
}

func TestWhenPredicate(t *testing.T) {
	en := NewEngine()
	r := custRule("conditional", event.Context{}, spec.DisplayNull)
	r.When = func(e event.Event) bool { return e.OID%2 == 0 }
	r.On = event.GetValue
	en.AddRule(r)
	even := event.Event{Kind: event.GetValue, OID: 4}
	odd := event.Event{Kind: event.GetValue, OID: 3}
	if _, ok := dispatchAndTake(t, en, even); !ok {
		t.Fatal("even OID should match")
	}
	if _, ok := dispatchAndTake(t, en, odd); ok {
		t.Fatal("odd OID should not match")
	}
}

func TestConstraintVeto(t *testing.T) {
	en := NewEngine()
	violation := errors.New("poles must not overlap")
	en.AddRule(Rule{
		Name:   "no-overlap",
		Family: FamilyConstraint,
		On:     event.PreInsert,
		Class:  "Pole",
		React: func(e event.Event, em Emitter) error {
			return violation
		},
	})
	err := en.HandleEvent(event.Event{Kind: event.PreInsert, Class: "Pole"})
	if !errors.Is(err, violation) {
		t.Fatalf("veto not propagated: %v", err)
	}
	if err := en.HandleEvent(event.Event{Kind: event.PreInsert, Class: "Duct"}); err != nil {
		t.Fatalf("unrelated class vetoed: %v", err)
	}
}

func TestConstraintsRunBeforeReactions(t *testing.T) {
	en := NewEngine()
	var order []string
	en.AddRule(Rule{
		Name: "react", Family: FamilyReaction, On: event.PreUpdate,
		React: func(e event.Event, em Emitter) error {
			order = append(order, "reaction")
			return nil
		},
	})
	en.AddRule(Rule{
		Name: "guard", Family: FamilyConstraint, On: event.PreUpdate,
		React: func(e event.Event, em Emitter) error {
			order = append(order, "constraint")
			return nil
		},
	})
	if err := en.HandleEvent(event.Event{Kind: event.PreUpdate}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "constraint" {
		t.Fatalf("order = %v", order)
	}
}

func TestReactionCascade(t *testing.T) {
	en := NewEngine()
	var seen []string
	en.AddRule(Rule{
		Name: "onInsert", Family: FamilyReaction, On: event.PostInsert,
		Emits: []event.Pattern{{Kind: event.External, Name: "audit"}},
		React: func(e event.Event, em Emitter) error {
			seen = append(seen, "insert")
			return em.EmitNested(event.Event{Kind: event.External, Name: "audit"})
		},
	})
	en.AddRule(Rule{
		Name: "onAudit", Family: FamilyReaction, On: event.External,
		React: func(e event.Event, em Emitter) error {
			seen = append(seen, "audit:"+e.Name)
			return nil
		},
	})
	if err := en.HandleEvent(event.Event{Kind: event.PostInsert}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[1] != "audit:audit" {
		t.Fatalf("cascade = %v", seen)
	}
}

// TestCascadedSelectionAnswersNoCaller pins the depth-0 rule of the reply
// slot: a reaction on Get_Class emits a declared External event that a
// second customization rule matches. The cascaded event inherits the
// caller's context, slot included, yet the caller gets nil while only the
// nested rule matches, and its own rule's customization once one does.
func TestCascadedSelectionAnswersNoCaller(t *testing.T) {
	en := NewEngine()
	nested := custRule("nested", event.Context{}, spec.DisplayHierarchy)
	nested.On = event.External
	en.AddRule(nested)
	en.AddRule(Rule{
		Name: "relay", Family: FamilyReaction, On: event.GetClass,
		Emits: []event.Pattern{{Kind: event.External}},
		React: func(e event.Event, em Emitter) error {
			return em.EmitNested(event.Event{Kind: event.External, Ctx: e.Ctx})
		},
	})
	e := event.Event{Kind: event.GetClass, Class: "Pole", Ctx: event.Context{User: "juliano"}}
	if c, ok := dispatchAndTake(t, en, e); ok {
		t.Fatalf("caller got the cascaded selection %q", c.Origin)
	}
	own := custRule("own", event.Context{}, spec.DisplayNull)
	own.On = event.GetClass
	en.AddRule(own)
	if c, _ := dispatchAndTake(t, en, e); c.Origin != "own" {
		t.Fatalf("caller got %q, want its own rule", c.Origin)
	}
	// Both dispatches fired the nested rule; its selections answered no one.
	if got := en.Stats().Selected; got != 3 {
		t.Fatalf("selected = %d, want 3", got)
	}
}

func TestCascadeDepthLimit(t *testing.T) {
	en := NewEngine()
	en.MaxCascade = 5
	en.AddRule(Rule{
		Name: "loop", Family: FamilyReaction, On: event.External,
		Emits: []event.Pattern{{Kind: event.External}},
		React: func(e event.Event, em Emitter) error {
			return em.EmitNested(e) // infinite self-trigger
		},
	})
	err := en.HandleEvent(event.Event{Kind: event.External, Name: "boom"})
	if !errors.Is(err, ErrCascadeLimit) {
		t.Fatalf("runaway cascade not caught: %v", err)
	}
	// The static analyzer sees the same loop before any event fires: the
	// declared self-emission is a triggering-graph cycle.
	findings := en.CheckSet()
	if len(findings) != 2 || findings[0].Check != "cycle" || findings[1].Check != "dead-rule" {
		t.Fatalf("CheckSet = %+v, want a cycle and a dead-rule finding", findings)
	}
	if len(findings[0].Rules) != 2 || findings[0].Rules[0] != "loop" || findings[0].Rules[1] != "loop" {
		t.Fatalf("cycle path = %v", findings[0].Rules)
	}
}

func TestUndeclaredEmissionRejected(t *testing.T) {
	en := NewEngine()
	en.AddRule(Rule{
		Name: "sneaky", Family: FamilyReaction, On: event.PostInsert,
		Emits: []event.Pattern{{Kind: event.External, Name: "audit"}},
		React: func(e event.Event, em Emitter) error {
			return em.EmitNested(event.Event{Kind: event.PostUpdate}) // not declared
		},
	})
	err := en.HandleEvent(event.Event{Kind: event.PostInsert})
	if !errors.Is(err, ErrUndeclaredEmit) {
		t.Fatalf("undeclared emission not rejected: %v", err)
	}
	// A rule with nil Emits declares "emits nothing".
	en2 := NewEngine()
	en2.AddRule(Rule{
		Name: "silent", Family: FamilyReaction, On: event.PostInsert,
		React: func(e event.Event, em Emitter) error {
			return em.EmitNested(event.Event{Kind: event.External})
		},
	})
	if err := en2.HandleEvent(event.Event{Kind: event.PostInsert}); !errors.Is(err, ErrUndeclaredEmit) {
		t.Fatalf("nil-Emits emission not rejected: %v", err)
	}
}

func TestCustomizationRuleCannotDeclareEmits(t *testing.T) {
	en := NewEngine()
	r := custRule("c", event.Context{}, spec.DisplayDefault)
	r.Emits = []event.Pattern{{Kind: event.External}}
	if err := en.AddRule(r); !errors.Is(err, ErrBadRule) {
		t.Fatalf("customization rule with Emits accepted: %v", err)
	}
}

func TestIndexedVsLinearSameResults(t *testing.T) {
	build := func(indexed bool) *Engine {
		en := NewEngine()
		en.Indexed = indexed
		for i := 0; i < 50; i++ {
			r := custRule(fmt.Sprintf("r%d", i), event.Context{User: fmt.Sprintf("u%d", i)}, spec.DisplayNull)
			if i%2 == 0 {
				r.On = event.GetClass
			}
			en.AddRule(r)
		}
		return en
	}
	for _, e := range []event.Event{
		{Kind: event.GetSchema, Ctx: event.Context{User: "u1"}},
		{Kind: event.GetClass, Ctx: event.Context{User: "u2"}},
		{Kind: event.GetValue, Ctx: event.Context{User: "u3"}},
	} {
		a, b := build(true), build(false)
		ca, oka := dispatchAndTake(t, a, e)
		cb, okb := dispatchAndTake(t, b, e)
		if oka != okb || ca.Origin != cb.Origin {
			t.Fatalf("indexed/linear diverge on %s: %v/%v %q/%q", e, oka, okb, ca.Origin, cb.Origin)
		}
		// Indexed evaluates fewer rules.
		if a.Stats().Evaluated >= b.Stats().Evaluated {
			t.Fatalf("indexed evaluated %d, linear %d", a.Stats().Evaluated, b.Stats().Evaluated)
		}
	}
}

func TestPriorityTiebreak(t *testing.T) {
	en := NewEngine()
	r1 := custRule("low", event.Context{User: "u"}, spec.DisplayDefault)
	r1.Priority = 1
	r2 := custRule("high", event.Context{User: "u"}, spec.DisplayHierarchy)
	r2.Priority = 2
	en.AddRule(r1)
	en.AddRule(r2)
	e := event.Event{Kind: event.GetSchema, Ctx: event.Context{User: "u"}}
	c, ok := dispatchAndTake(t, en, e)
	if !ok || c.Origin != "high" {
		t.Fatalf("tiebreak winner = %q", c.Origin)
	}
}

func TestEventScopeSpecificityBreaksContextTies(t *testing.T) {
	en := NewEngine()
	broad := custRule("broad", event.Context{User: "u"}, spec.DisplayDefault)
	broad.On = event.GetClass
	narrow := custRule("narrow", event.Context{User: "u"}, spec.DisplayNull)
	narrow.On = event.GetClass
	narrow.Schema = "phone_net"
	narrow.Class = "Pole"
	en.AddRule(broad)
	en.AddRule(narrow)
	e := event.Event{Kind: event.GetClass, Schema: "phone_net", Class: "Pole", Ctx: event.Context{User: "u"}}
	if c, _ := dispatchAndTake(t, en, e); c.Origin != "narrow" {
		t.Fatalf("winner = %q, want narrow (class-scoped)", c.Origin)
	}
}

func TestCustomizationActionError(t *testing.T) {
	en := NewEngine()
	boom := errors.New("library object missing")
	en.AddRule(Rule{
		Name: "bad", Family: FamilyCustomization, On: event.GetSchema,
		Customize: func(e event.Event) (spec.Customization, error) {
			return spec.Customization{}, boom
		},
	})
	err := en.HandleEvent(event.Event{Kind: event.GetSchema})
	if !errors.Is(err, boom) {
		t.Fatalf("action error: %v", err)
	}
}

// TestTrace reads the engine's account of an interaction from its spans: the
// selected customization rule, the fired reaction rule, the cache hit on repeat.
func TestTrace(t *testing.T) {
	en := NewEngine()
	rec := obs.NewSpanRecorder(16)
	en.Tracer().AttachSink(rec)
	en.AddRule(custRule("r", event.Context{}, spec.DisplayNull))
	en.AddRule(Rule{
		Name: "log", Family: FamilyReaction, On: event.GetSchema,
		React: func(event.Event, Emitter) error { return nil },
	})
	e := event.Event{Kind: event.GetSchema, Schema: "s"}
	for i := 0; i < 2; i++ {
		if err := en.HandleEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, sp := range rec.Spans() {
		got = append(got, sp.Name+" "+fmt.Sprint(sp.Attrs))
	}
	want := []string{
		"rule.fire [{rule log} {family reaction}]",
		"active.dispatch [{event Get_Schema} {ctx <*>} {candidates 2} {cache miss} {selected r} {specificity 0}]",
		"rule.fire [{rule log} {family reaction}]",
		"active.dispatch [{event Get_Schema} {ctx <*>} {cache hit} {selected r} {specificity 0}]",
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Errorf("spans = %q\nwant    %q", got, want)
	}
}

func TestDispatchSpans(t *testing.T) {
	en := NewEngine()
	rec := obs.NewSpanRecorder(16)
	en.Tracer().AttachSink(rec)
	en.AddRule(custRule("r", event.Context{}, spec.DisplayNull))
	en.AddRule(Rule{
		Name: "log", Family: FamilyReaction, On: event.GetSchema,
		React: func(event.Event, Emitter) error { return nil },
	})
	e := event.Event{Kind: event.GetSchema, Schema: "s"}
	if err := en.HandleEvent(e); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	var dispatch, fire *obs.Span
	for i := range spans {
		switch spans[i].Name {
		case "active.dispatch":
			dispatch = &spans[i]
		case "rule.fire":
			fire = &spans[i]
		}
	}
	if dispatch == nil || fire == nil {
		t.Fatalf("spans = %+v", spans)
	}
	if fire.Parent != dispatch.ID {
		t.Errorf("rule.fire parent = %d, want dispatch ID %d", fire.Parent, dispatch.ID)
	}
	attrs := map[string]string{}
	for _, a := range dispatch.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["event"] != "Get_Schema" || attrs["selected"] != "r" {
		t.Errorf("dispatch attrs = %v", attrs)
	}
	// Detaching disables the span path again.
	en.Tracer().AttachSink(nil)
	if err := en.HandleEvent(e); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != uint64(len(spans)) {
		t.Error("spans recorded after detach")
	}
}

func TestStatsCounters(t *testing.T) {
	en := NewEngine()
	en.AddRule(custRule("a", event.Context{}, spec.DisplayDefault))
	e := event.Event{Kind: event.GetSchema}
	for i := 0; i < 10; i++ {
		en.HandleEvent(e)
	}
	st := en.Stats()
	if st.Events != 10 || st.Fired != 10 || st.Selected != 10 {
		t.Fatalf("stats = %+v", st)
	}
	en.ResetStats()
	if en.Stats().Events != 0 {
		t.Fatal("reset failed")
	}
}

func TestPaperSection4Rules(t *testing.T) {
	// Reproduce R1 and R2 of Section 4 hand-written (the compiler test in
	// custlang produces them from the Figure 6 script).
	en := NewEngine()
	ctx := event.Context{User: "juliano", Application: "pole_manager"}
	en.AddRule(Rule{
		Name: "R1", Family: FamilyCustomization, On: event.GetSchema,
		Schema: "phone_net", Context: ctx,
		Customize: func(e event.Event) (spec.Customization, error) {
			return spec.Customization{
				Level: spec.LevelSchema,
				Schema: spec.SchemaCust{
					Schema: "phone_net", Display: spec.DisplayNull, Classes: []string{"Pole"},
				},
			}, nil
		},
	})
	en.AddRule(Rule{
		Name: "R2", Family: FamilyCustomization, On: event.GetClass,
		Schema: "phone_net", Class: "Pole", Context: ctx,
		Customize: func(e event.Event) (spec.Customization, error) {
			return spec.Customization{
				Level: spec.LevelClass,
				Class: spec.ClassCust{Class: "Pole", Control: "poleWidget", Presentation: "pointFormat"},
			}, nil
		},
	})
	eSchema := event.Event{Kind: event.GetSchema, Schema: "phone_net", Ctx: ctx}
	c1, ok := dispatchAndTake(t, en, eSchema)
	if !ok || c1.Schema.Display != spec.DisplayNull || len(c1.Schema.Classes) != 1 {
		t.Fatalf("R1 = %+v, %v", c1, ok)
	}
	eClass := event.Event{Kind: event.GetClass, Schema: "phone_net", Class: "Pole", Ctx: ctx}
	c2, ok := dispatchAndTake(t, en, eClass)
	if !ok || c2.Class.Control != "poleWidget" || c2.Class.Presentation != "pointFormat" {
		t.Fatalf("R2 = %+v, %v", c2, ok)
	}
	// A different user gets no customization — the generic default.
	other := event.Event{Kind: event.GetSchema, Schema: "phone_net",
		Ctx: event.Context{User: "maria", Application: "pole_manager"}}
	if _, ok := dispatchAndTake(t, en, other); ok {
		t.Fatal("R1 must not fire for another user")
	}
}

func TestSelectAllAblation(t *testing.T) {
	build := func(selectAll bool) *Engine {
		en := NewEngine()
		en.SelectAll = selectAll
		en.AddRule(custRule("generic", event.Context{Application: "app"}, spec.DisplayDefault))
		en.AddRule(custRule("category", event.Context{Category: "c", Application: "app"}, spec.DisplayHierarchy))
		en.AddRule(custRule("user", event.Context{User: "u", Application: "app"}, spec.DisplayNull))
		return en
	}
	e := event.Event{Kind: event.GetSchema,
		Ctx: event.Context{User: "u", Category: "c", Application: "app"}}

	single := build(false)
	c1, ok1 := dispatchAndTake(t, single, e)

	all := build(true)
	c2, ok2 := dispatchAndTake(t, all, e)

	// Both execution models deliver the most specific customization...
	if !ok1 || !ok2 || c1.Origin != "user" || c2.Origin != "user" {
		t.Fatalf("winners = %q / %q", c1.Origin, c2.Origin)
	}
	if c1.Schema.Display != spec.DisplayNull || c2.Schema.Display != spec.DisplayNull {
		t.Fatal("display mismatch")
	}
	// ...but fire-all paid for every matching action.
	if single.Stats().Fired != 1 {
		t.Fatalf("single fired = %d", single.Stats().Fired)
	}
	if all.Stats().Fired != 3 || all.Stats().Selected != 3 {
		t.Fatalf("fire-all stats = %+v", all.Stats())
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// Equal specificity and equal priority: the lexicographically smaller
	// rule name must win, regardless of insertion order or Indexed mode.
	ctx := event.Context{Category: "novice"}
	e := event.Event{Kind: event.GetSchema, Schema: "s", Ctx: event.Context{Category: "novice"}}
	for _, indexed := range []bool{true, false} {
		for _, order := range [][2]string{{"alpha", "beta"}, {"beta", "alpha"}} {
			en := NewEngine()
			en.Indexed = indexed
			for _, name := range order {
				if err := en.AddRule(custRule(name, ctx, spec.DisplayDefault)); err != nil {
					t.Fatal(err)
				}
			}
			c, ok := dispatchAndTake(t, en, e)
			if !ok || c.Origin != "alpha" {
				t.Fatalf("indexed=%v order=%v: winner = %q (ok=%v), want alpha",
					indexed, order, c.Origin, ok)
			}
		}
	}
}

func TestCheckSetFindsAmbiguityAndShadowing(t *testing.T) {
	en := NewEngine()
	// alpha/beta: identical context, scope and priority — ambiguous.
	en.AddRule(custRule("alpha", event.Context{Category: "novice"}, spec.DisplayDefault))
	en.AddRule(custRule("beta", event.Context{Category: "novice"}, spec.DisplayHierarchy))
	// low is shadowed by high: same pattern, strictly higher priority.
	low := custRule("low", event.Context{User: "ann"}, spec.DisplayDefault)
	high := custRule("high", event.Context{User: "ann"}, spec.DisplayHierarchy)
	high.Priority = 5
	en.AddRule(low)
	en.AddRule(high)

	findings := en.CheckSet()
	var checks []string
	for _, f := range findings {
		checks = append(checks, f.Check)
	}
	wantAmb, wantShadow := false, false
	for _, f := range findings {
		switch f.Check {
		case "ambiguity":
			if len(f.Rules) == 2 && f.Rules[0] == "alpha" && f.Rules[1] == "beta" {
				wantAmb = true
			}
		case "shadowing":
			if len(f.Rules) == 2 && f.Rules[0] == "low" && f.Rules[1] == "high" {
				wantShadow = true
			}
		}
	}
	if !wantAmb || !wantShadow {
		t.Fatalf("CheckSet checks = %v, findings = %+v", checks, findings)
	}
}
