package custlang

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
)

// This file stores customization directives inside the geographic database,
// realizing §3.4's "customization rules stored in the database are derived
// from assertives written in this language": the assertives (source text)
// persist as instances of a reserved class, and sessions recompile them into
// engine rules at attach time.

// RuleSchema is the reserved schema for persisted directives.
const RuleSchema = "_ui_rules"

// RuleClass is the class of persisted directives.
const RuleClass = "CustomizationDirective"

func ensureRuleClass(db *geodb.DB) error {
	if err := db.DefineSchema(RuleSchema); err != nil && !errors.Is(err, catalog.ErrDuplicate) {
		return err
	}
	err := db.DefineClass(RuleSchema, catalog.Class{
		Name: RuleClass,
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("source", catalog.Scalar(catalog.KindText)),
		},
	})
	if err != nil && !errors.Is(err, catalog.ErrDuplicate) {
		return err
	}
	return nil
}

// SaveDirectives validates and stores a named directive source file in the
// database, replacing any previous version under the same name in one
// transaction: a source the database refuses leaves the previous version
// stored. Validation runs through the analyzer so only compilable sources
// persist.
func (a *Analyzer) SaveDirectives(db *geodb.DB, name, src string) error {
	if _, err := a.CompileSource(src); err != nil {
		return fmt.Errorf("custlang: refusing to store invalid directives %q: %w", name, err)
	}
	if err := ensureRuleClass(db); err != nil {
		return err
	}
	existing, err := db.Select(RuleSchema, RuleClass, func(in geodb.Instance) bool {
		v, _ := in.Get("name")
		return v.Text == name
	})
	if err != nil {
		return err
	}
	values, err := db.ValuesFromMap(RuleSchema, RuleClass, map[string]catalog.Value{
		"name":   catalog.TextVal(name),
		"source": catalog.TextVal(src),
	})
	if err != nil {
		return err
	}
	txn := db.Begin(event.Context{Application: "_ui_rules"})
	defer txn.Abort() // a no-op once committed
	for _, in := range existing {
		if err := txn.Delete(in.OID); err != nil {
			return err
		}
	}
	if _, err := txn.Insert(RuleSchema, RuleClass, values); err != nil {
		return fmt.Errorf("custlang: store directives %q: %w", name, err)
	}
	return txn.Commit()
}

// LoadDirectives returns every stored directive source, keyed by name.
func LoadDirectives(db *geodb.DB) (map[string]string, error) {
	instances, err := db.Select(RuleSchema, RuleClass, nil)
	if err != nil {
		if errors.Is(err, catalog.ErrUnknown) {
			return map[string]string{}, nil
		}
		return nil, err
	}
	out := make(map[string]string, len(instances))
	for _, in := range instances {
		name, _ := in.Get("name")
		src, _ := in.Get("source")
		out[name.Text] = src.Text
	}
	return out, nil
}

// InstallStored compiles and installs every directive stored in the
// database onto the engine — what a session does at attach time. Directive
// files install in name order so rule ids are deterministic.
func (a *Analyzer) InstallStored(db *geodb.DB, engine *active.Engine) (int, error) {
	stored, err := LoadDirectives(db)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(stored))
	for name := range stored {
		names = append(names, name)
	}
	sort.Strings(names)
	installed := 0
	for _, name := range names {
		units, err := a.Install(engine, stored[name])
		if err != nil {
			return installed, fmt.Errorf("custlang: stored directives %q: %w", name, err)
		}
		for _, u := range units {
			installed += len(u.Rules)
		}
	}
	return installed, nil
}
