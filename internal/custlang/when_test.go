package custlang

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/event"
	"repro/internal/ruleanalysis"
	"repro/internal/spec"
)

// The when-clause extension: expression-level conditions beyond the
// context pattern, compiled into rule Conds the engine enforces and the
// static checks reason about.

// zoomDirectives layers two presentations over ONE context, split by a
// provably disjoint zoom condition instead of by priority.
const zoomDirectives = `
For application pole_manager when "zoom <= 10"
schema phone_net display as default

For application pole_manager when "zoom > 10"
schema phone_net display as hierarchy
`

func TestWhenClauseParsesAndPrints(t *testing.T) {
	d, err := ParseOne(`For user u when "zoom > 10 && scale == small" priority 2
schema phone_net display as default`)
	if err != nil {
		t.Fatal(err)
	}
	if d.When != `zoom > 10 && scale == small` {
		t.Fatalf("When = %q", d.When)
	}
	if d.Priority != 2 {
		t.Fatalf("Priority = %d", d.Priority)
	}
	printed := d.String()
	if !strings.Contains(printed, `when "zoom > 10 && scale == small"`) {
		t.Fatalf("printed = %q", printed)
	}
	back, err := ParseOne(printed)
	if err != nil || back.String() != printed {
		t.Fatalf("round trip: %v\n%q\n%q", err, printed, back.String())
	}
}

func TestWhenClauseErrors(t *testing.T) {
	bad := []string{
		`For user u when zoom schema s display as default`,                   // unquoted
		`For user u when "zoom >" schema s display as default`,               // bad expression
		`For user u when "" schema s display as default`,                     // empty
		`For user u when "a == 1" when "b == 2" schema s display as default`, // duplicate
		`For user u when "zoom
> 1" schema s display as default`, // newline in string
		`For user u when "zoom > 1 schema s display as default`, // unterminated
	}
	for i, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
}

func TestWhenReachesCompiledRules(t *testing.T) {
	a, _ := testAnalyzer(t)
	units, err := a.CompileSource(zoomDirectives)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %d", len(units))
	}
	for i, want := range []string{`zoom <= 10`, `zoom > 10`} {
		for _, r := range units[i].Rules {
			if r.Cond != want {
				t.Fatalf("unit %d rule %q Cond = %q, want %q", i, r.Name, r.Cond, want)
			}
		}
	}
}

func TestWhenDependentSelection(t *testing.T) {
	a, _ := testAnalyzer(t)
	engine := active.NewEngine()
	a.Strict = true
	if _, err := a.Install(engine, zoomDirectives); err != nil {
		t.Fatal(err)
	}
	probe := func(zoom string) (spec.SchemaDisplay, bool) {
		e := event.Event{
			Kind: event.GetSchema, Schema: "phone_net",
			Ctx: event.Context{
				Application: "pole_manager",
				Extra:       map[string]string{"zoom": zoom},
			},
		}
		c, ok := dispatchAndTake(t, engine, e)
		return c.Schema.Display, ok
	}
	if d, ok := probe("4"); !ok || d != spec.DisplayDefault {
		t.Fatalf("zoom=4: %v, %v", d, ok)
	}
	if d, ok := probe("12"); !ok || d != spec.DisplayHierarchy {
		t.Fatalf("zoom=12: %v, %v", d, ok)
	}
	// No zoom dimension: neither condition holds — no customization.
	e := event.Event{Kind: event.GetSchema, Schema: "phone_net",
		Ctx: event.Context{Application: "pole_manager"}}
	if _, ok := dispatchAndTake(t, engine, e); ok {
		t.Fatal("zoom rules fired without a zoom dimension")
	}
}

func TestCheckProgramWhenAware(t *testing.T) {
	parse := func(src string) []Directive {
		t.Helper()
		ds, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	// Disjoint whens over one context: clean.
	fs := CheckProgram(parse(zoomDirectives))
	if len(fs) != 0 {
		t.Fatalf("disjoint whens: findings = %+v", fs)
	}

	// Overlapping whens (zoom > 0 and zoom > 10 are co-satisfiable at 12):
	// still a duplicate context.
	fs = CheckProgram(parse(`
For application pole_manager when "zoom > 0"
schema phone_net display as default

For application pole_manager when "zoom > 10"
schema phone_net display as default
`))
	if len(fs) != 1 || fs[0].Check != ruleanalysis.CheckDuplicateContext {
		t.Fatalf("overlapping whens: findings = %+v", fs)
	}

	// Overlapping whens with disagreeing presentations: conflict error.
	fs = CheckProgram(parse(`
For application pole_manager when "zoom > 0"
schema phone_net display as default

For application pole_manager when "zoom > 10"
schema phone_net display as hierarchy
`))
	if len(fs) != 1 || fs[0].Check != ruleanalysis.CheckConflict || fs[0].Severity != ruleanalysis.SeverityError {
		t.Fatalf("conflicting whens: findings = %+v", fs)
	}
	if !strings.Contains(fs[0].Message, `when "zoom > 10"`) {
		t.Errorf("conflict label should show the when clause: %s", fs[0].Message)
	}

	// An unparsable when on a hand-built directive is reported, not
	// silently treated as disjoint.
	ds := parse(`For user u
schema phone_net display as default`)
	ds[0].When = `zoom >`
	fs = CheckProgram(ds)
	if len(fs) != 1 || fs[0].Check != ruleanalysis.CheckCondSyntax {
		t.Fatalf("bad when: findings = %+v", fs)
	}
}

// TestWhenShadowingCaughtBySatisfiability is the acceptance-criteria case:
// a directive whose when condition implies a same-context, higher-priority
// directive's weaker condition is dead — PR 3's shape-only check could not
// see this (the conditions differ, so the generated rules are not
// identical patterns; only implication reasoning finds the shadow).
func TestWhenShadowingCaughtBySatisfiability(t *testing.T) {
	a, _ := testAnalyzer(t)
	engine := active.NewEngine()
	units, err := a.CompileSourceFile("shadow.cust", `
For application pole_manager when "zoom > 10"
schema phone_net display as default

For application pole_manager when "zoom > 0" priority 5
schema phone_net display as hierarchy
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		for _, r := range u.Rules {
			if err := engine.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs := engine.CheckSet()
	var shadow *ruleanalysis.Finding
	for i := range fs {
		if fs[i].Check == ruleanalysis.CheckShadowing {
			shadow = &fs[i]
		}
	}
	if shadow == nil {
		t.Fatalf("satisfiability shadowing missed: findings = %+v", fs)
	}
	if !strings.Contains(shadow.Message, "condition is implied") {
		t.Errorf("message = %s", shadow.Message)
	}
}
