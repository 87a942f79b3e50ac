package custlang

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/event"
	"repro/internal/spec"
)

// The where-clause extension: extra context dimensions (geographic scale,
// time framework) beyond the paper's <user, category, application> tuple.

const scaleDirectives = `
# City-scale browsing: regions, coarse.
For application pole_manager where scale small
schema phone_net display as default

# Street-scale browsing: hierarchy, detailed.
For application pole_manager where scale large
schema phone_net display as hierarchy

# A specific user at street scale outranks the generic scale rule.
For user juliano application pole_manager where scale large
schema phone_net display as Null
`

func TestWhereClauseParsesAndPrints(t *testing.T) {
	d, err := ParseOne(`For user u where scale large where epoch 1997
schema phone_net display as default`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Context.Extra["scale"] != "large" || d.Context.Extra["epoch"] != "1997" {
		t.Fatalf("extra = %v", d.Context.Extra)
	}
	printed := d.String()
	if !strings.Contains(printed, "where epoch 1997 where scale large") {
		t.Fatalf("printed = %q", printed)
	}
	// Round trip.
	back, err := ParseOne(printed)
	if err != nil || back.String() != printed {
		t.Fatalf("round trip: %v\n%q\n%q", err, printed, back.String())
	}
}

func TestWhereClauseErrors(t *testing.T) {
	bad := []string{
		`For user u where`,       // missing key
		`For user u where scale`, // missing value
		`For user u where scale a where scale b schema s display as default`, // duplicate
		`For where scale a schema s display as default`,                      // where alone counts, but "For where"? where IS a context part...
	}
	for i, src := range bad[:3] {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// A directive whose only context part is a where clause is legal: it
	// scopes by dimension alone.
	d, err := ParseOne(`For where scale small
schema phone_net display as default`)
	if err != nil {
		t.Fatalf("where-only context: %v", err)
	}
	if d.Context.User != "" || d.Context.Extra["scale"] != "small" {
		t.Fatalf("context = %+v", d.Context)
	}
}

func TestScaleDependentSelection(t *testing.T) {
	a, _ := testAnalyzer(t)
	engine := active.NewEngine()
	if _, err := a.Install(engine, scaleDirectives); err != nil {
		t.Fatal(err)
	}
	probe := func(user, scale string) (spec.SchemaDisplay, bool) {
		e := event.Event{
			Kind: event.GetSchema, Schema: "phone_net",
			Ctx: event.Context{
				User: user, Application: "pole_manager",
				Extra: map[string]string{"scale": scale},
			},
		}
		c, ok := dispatchAndTake(t, engine, e)
		return c.Schema.Display, ok
	}
	// Generic user: the scale decides.
	if d, ok := probe("maria", "small"); !ok || d != spec.DisplayDefault {
		t.Fatalf("maria@small = %v, %v", d, ok)
	}
	if d, ok := probe("maria", "large"); !ok || d != spec.DisplayHierarchy {
		t.Fatalf("maria@large = %v, %v", d, ok)
	}
	// juliano at large scale: the user-specific rule outranks.
	if d, ok := probe("juliano", "large"); !ok || d != spec.DisplayNull {
		t.Fatalf("juliano@large = %v, %v", d, ok)
	}
	// juliano at small scale: only the generic small-scale rule matches.
	if d, ok := probe("juliano", "small"); !ok || d != spec.DisplayDefault {
		t.Fatalf("juliano@small = %v, %v", d, ok)
	}
	// No scale in the session context: no scale rule matches.
	e := event.Event{Kind: event.GetSchema, Schema: "phone_net",
		Ctx: event.Context{User: "maria", Application: "pole_manager"}}
	if _, ok := dispatchAndTake(t, engine, e); ok {
		t.Fatal("scale rules fired without a scale dimension")
	}
}

func TestWhereRuleNamesDistinct(t *testing.T) {
	a, _ := testAnalyzer(t)
	units, err := a.CompileSource(scaleDirectives)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, u := range units {
		for _, name := range u.RuleNames() {
			if seen[name] {
				t.Fatalf("duplicate rule name %q", name)
			}
			seen[name] = true
			if !strings.Contains(name, "scale=") {
				t.Fatalf("rule name %q lacks the scale dimension", name)
			}
		}
	}
}
