package vet

import (
	"go/ast"

	"repro/internal/ruleanalysis"
)

// NoPrint ports the original repovet rule onto the framework: library
// packages must not print to stdout/stderr via fmt.Print* or the standard
// log package, nor log through log/slog's package-level functions, which
// write through the process-default logger. Output belongs to the cmd/
// front-ends (and examples/), while libraries report through errors,
// traces, metrics and a *slog.Logger their caller hands them. Dot-imports
// are flagged everywhere: they defeat qualifier-based checks like this one.
//
// Unlike the old text grep, resolution is type-based, so aliased imports
// (pr "fmt") are caught and same-named local packages are not.
var NoPrint = &Analyzer{
	Name:     "noprint",
	Doc:      "fmt.Print*/log.Print*/package-level slog calls in library packages; dot-imports anywhere",
	Severity: ruleanalysis.SeverityError,
	Run:      runNoPrint,
}

// bannedPrint maps a package path to its output-writing call names.
var bannedPrint = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
	"log/slog": {
		"Debug": true, "Info": true, "Warn": true, "Error": true,
		"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
		"Log": true, "LogAttrs": true,
	},
}

func runNoPrint(p *Pass) {
	for _, f := range p.Unit.Files {
		for _, imp := range f.Imports {
			if imp.Name != nil && imp.Name.Name == "." {
				p.Reportf(imp.Pos(), "dot-import of %s defeats qualifier-based checks; import it by name", imp.Path.Value)
			}
		}
	}
	if p.InCommandDir() {
		return
	}
	for _, f := range p.Unit.Files {
		if p.IsTestFile(f.Pos()) {
			continue // tests print through *testing.T
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := p.PkgNameOf(sel.X)
			if pkg == "" || !bannedPrint[pkg][sel.Sel.Name] {
				return true
			}
			p.Reportf(call.Pos(),
				"%s.%s writes output from a library package; return an error, or report through obs or an injected *slog.Logger",
				pkg, sel.Sel.Name)
			return true
		})
	}
}
