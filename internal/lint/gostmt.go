package lint

import "go/ast"

// GoStmtAnalyzer keeps goroutines out of the deterministic core: a
// //kollaps:deterministic package gets bit-identical replay from
// single-threaded simulation, so any goroutine is a determinism hole by
// construction. Every go statement in such a package is a finding.
var GoStmtAnalyzer = &Analyzer{
	Name: "gostmt",
	Doc:  "forbid go statements in //kollaps:deterministic packages",
	Run:  runGoStmt,
}

func runGoStmt(pass *Pass) error {
	if !pass.PkgDirective("deterministic") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in deterministic package %s", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
