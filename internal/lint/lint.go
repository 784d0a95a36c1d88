// Package lint is kollapslint: project-specific static analysis that
// turns two of the reproduction's load-bearing contracts — bit-identical
// per-flow results across dissemination strategies and runs, and
// saturating wire encodes — into line-level, compile-time checks. They
// are the contracts no test can check on every path: a test sees the
// inputs it drives, these analyzers see every line of a contract
// package. The allocation-free loop, buffer ownership and lock
// discipline are held by tests instead (AllocsPerRun contracts, the
// dissem harness's reused and overwritten buffers, go test -race); see
// DESIGN.md "Determinism & wire-safety contract" for the catch log.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone — go/ast, go/parser, go/types — because the build environment
// vendors no external modules. An analyzer written here ports to a real
// multichecker by swapping the Pass type.
//
// Four analyzers enforce the contracts:
//
//   - walltime: packages annotated //kollaps:deterministic may not read
//     the wall clock or the global math/rand stream outside sites
//     annotated //kollaps:wallclock. See walltime.go.
//   - maporder: a range over a map whose iteration order can reach the
//     wire or an export sink without an intervening deterministic sort
//     is flagged. See maporder.go.
//   - wiresafe: in packages annotated //kollaps:wirecodec, integer
//     narrowing into wire serialization calls or //kollaps:wire struct
//     fields must go through the saturating helpers of internal/wire.
//     See wiresafe.go.
//   - gostmt: a go statement in a //kollaps:deterministic package is
//     flagged. See gostmt.go.
//
// # Annotation vocabulary
//
// Annotations are line comments beginning with "kollaps:" (no space,
// like go:build). Function-scope annotations go in the function's doc
// comment; site-scope annotations go on the flagged line or the line
// directly above it; package-scope annotations go next to the package
// clause of any file in the package.
//
//	//kollaps:wallclock      site  sanctioned wall-clock read
//	//kollaps:orderok        site  map range whose order provably cannot
//	                         reach an encoder (or is sorted downstream in
//	                         a way the analyzer cannot see)
//	//kollaps:deterministic  package  virtual-time only: walltime,
//	                         maporder and gostmt apply
//	//kollaps:wirecodec      package  wiresafe applies
//	//kollaps:wire           type  struct whose fields are wire-format
//	                         values (narrowing into them is checked)
//	//kollaps:saturates      func  performs a checked narrowing; its body
//	                         is exempt from wiresafe
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass: a name, what it reports, and
// the function that runs it over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is the one-paragraph description shown by `kollapslint -help`.
	Doc string
	// Run analyzes one package, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one package's syntax and types to an analyzer's Run
// function.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for every file of the program.
	Fset *token.FileSet
	// Files are the package's parsed files, in file-name order.
	Files []*ast.File
	// Pkg is the package's type information.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	dirs *directiveIndex
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ---- directives ----

// directivePrefix starts every kollaps annotation comment.
const directivePrefix = "//kollaps:"

// directiveIndex resolves //kollaps: annotations for one package: which
// directives appear on which line of which file, plus the package-scope
// set.
type directiveIndex struct {
	// byLine maps "<filename>:<line>" to the directives on that line.
	byLine map[string][]string
	// pkg is the set of package-scope directives (deterministic,
	// wirecodec) declared by any file of the package.
	pkg map[string]bool
}

// buildDirectiveIndex scans a package's comments for kollaps annotations.
func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string][]string), pkg: make(map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := directiveName(c.Text)
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				idx.byLine[key] = append(idx.byLine[key], name)
				if name == "deterministic" || name == "wirecodec" {
					idx.pkg[name] = true
				}
			}
		}
	}
	return idx
}

// directives returns the package's directive index, building it lazily.
func (p *Pass) directives() *directiveIndex {
	if p.dirs == nil {
		p.dirs = buildDirectiveIndex(p.Fset, p.Files)
	}
	return p.dirs
}

// PkgDirective reports whether any file of the package declares the
// given package-scope directive (e.g. "deterministic").
func (p *Pass) PkgDirective(name string) bool {
	return p.directives().pkg[name]
}

// lineHas reports whether the directive appears on the given
// file:line.
func (d *directiveIndex) lineHas(fset *token.FileSet, filename string, line int, name string) bool {
	for _, n := range d.byLine[fmt.Sprintf("%s:%d", filename, line)] {
		if n == name {
			return true
		}
	}
	return false
}

// SiteAllowed reports whether pos (or the line directly above it) is
// annotated with the given site-scope directive — the escape hatch for
// sanctioned wall-clock reads (//kollaps:wallclock) and order-immune
// map ranges (//kollaps:orderok).
func (p *Pass) SiteAllowed(pos token.Pos, name string) bool {
	d := p.directives()
	pp := p.Fset.Position(pos)
	return d.lineHas(p.Fset, pp.Filename, pp.Line, name) ||
		d.lineHas(p.Fset, pp.Filename, pp.Line-1, name)
}

// FuncDirective reports whether a function declaration carries the
// given directive in its doc comment or on its declaration line.
func FuncDirective(fset *token.FileSet, decl *ast.FuncDecl, files []*ast.File, name string) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if directiveName(c.Text) == name {
				return true
			}
		}
	}
	// Same-line trailing comment: func f() { //kollaps:saturates
	declLine := fset.Position(decl.Pos()).Line
	declFile := fset.Position(decl.Pos()).Filename
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cp := fset.Position(c.Pos())
				if cp.Filename == declFile && cp.Line == declLine && directiveName(c.Text) == name {
					return true
				}
			}
		}
	}
	return false
}

// TypeDirective reports whether a type declaration (the TypeSpec or its
// enclosing GenDecl) carries the given directive in its doc comment.
func TypeDirective(gen *ast.GenDecl, spec *ast.TypeSpec, name string) bool {
	for _, doc := range []*ast.CommentGroup{gen.Doc, spec.Doc, spec.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if directiveName(c.Text) == name {
				return true
			}
		}
	}
	return false
}

// directiveName extracts the kollaps directive name from a comment's
// raw text ("//kollaps:saturates" → "saturates"), or "".
func directiveName(text string) string {
	name, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name
}

// unparen strips any enclosing parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---- running ----

// Finding is one deduplicated, position-resolved diagnostic of a run.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String formats the finding like a compiler error.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// RunAnalyzers applies every analyzer to every package of the program
// and returns the merged findings sorted by position. A diagnostic
// reported twice at the same position with the same message is kept
// once.
func RunAnalyzers(prog *Program, analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	seen := make(map[string]bool)
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				f := Finding{
					Analyzer: a.Name,
					Position: prog.Fset.Position(d.Pos),
					Message:  d.Message,
				}
				key := f.String()
				if !seen[key] {
					seen[key] = true
					out = append(out, f)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// Analyzers returns the four kollapslint analyzers in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{WallTimeAnalyzer, MapOrderAnalyzer, WireSafeAnalyzer, GoStmtAnalyzer}
}
